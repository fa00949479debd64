/**
 * @file
 * The serving workloads' request mix, its seeded per-connection
 * streams, and the direct answers every served reply must equal.
 *
 * The mix (shares of requests):
 *   65% evaluate over the DVS space (apps x 11 levels; the batcher
 *       coalesces repeats of the same point within a batch)
 *   12% select_drm, 8% select_dtm: half DVS, half ArchDVS, T_qual
 *       one of 16 values from 325 to 400 K
 *    5% v3 select_chip: one of four 2- and 4-core app mixes, T_qual
 *       one of the four Figure 2 values
 *    5% v2 report_usage: an aging delta for one of four chips the
 *       sending connection alone owns
 *    3% v2 remaining_lifetime: one of four chips reported during
 *       set-up, never written afterwards
 *    2% stats
 *
 * Every request but report_usage and stats has one fixed answer: the
 * UniqueRequest table enumerates them and holds each answer's reply
 * bytes. report_usage answers depend on the chip's history, so they
 * are replayed in order against a shadow registry as replies arrive.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "serve/service.hh"
#include "util/random.hh"
#include "workload/profile.hh"

namespace ramp {
namespace bench {

/** A request whose answer never changes, with that answer. */
struct UniqueRequest
{
    serve::Request req;
    /** The direct answer's reply frame after its leading `{"id":0`;
     *  a served reply must be `{"id":<id>` followed by exactly this. */
    std::string reply_tail;
};

enum class ItemKind : std::uint8_t { Unique, Report, Stats };

/** One request of a stream: a table entry, the connection's
 *  index-th report_usage, or a stats probe. */
struct Item
{
    ItemKind kind = ItemKind::Stats;
    std::uint32_t index = 0;
};

/** Chips report_usage writes (per connection) and remaining_lifetime
 *  reads (shared, reported during set-up). */
inline constexpr std::uint32_t chips_per_connection = 4;
inline constexpr std::uint32_t life_chips = 4;

class RequestMix
{
  public:
    RequestMix(std::vector<std::string> apps, std::uint64_t seed);

    const std::vector<UniqueRequest> &table() const { return table_; }

    /** Draw the next item of a stream; @p reports counts the
     *  connection's report_usage items so far. */
    Item draw(util::Rng &rng, std::uint32_t &reports) const;

    /** The wire request for @p item on connection @p conn (id 0). */
    serve::Request request(const Item &item, std::size_t conn) const;

    /** The set-up report_usage requests for the life chips. */
    std::vector<serve::Request> lifeChipReports() const;

    /**
     * Answer every table entry directly through @p service (driver
     * thread, before the server runs) and store the reply bytes.
     * Errors are returned, naming the request; so is an answer that
     * differs from one an earlier call stored.
     */
    [[nodiscard]] util::Result<void> precompute(serve::EvaluationService &service);

  private:
    std::vector<std::string> apps_;
    std::uint64_t seed_;
    std::vector<UniqueRequest> table_;
    // Offsets of each verb's block in table_.
    std::size_t evaluate_0_ = 0, drm_0_ = 0, dtm_0_ = 0, chip_0_ = 0,
                life_0_ = 0;
};

/** The direct (unserved) answer to one table request. */
[[nodiscard]] util::Result<util::JsonValue>
directAnswer(serve::EvaluationService &service, const serve::Request &req);

/** The stream seed of connection @p conn in phase @p phase. */
std::uint64_t streamSeed(std::uint64_t seed, std::size_t conn,
                         std::uint64_t phase);

} // namespace bench
} // namespace ramp
