/**
 * @file
 * The serving workloads' load generator: a few connections, each with
 * a sender thread and a receiver thread, speaking raw frames
 * (serve::encodeRequest out, reply bytes checked in).
 *
 * Open-loop phases send each connection's seeded Poisson schedule at
 * its due times whether or not replies have come back, and time every
 * request from when it was due, so a stall also charges the requests
 * queued behind it. Closed-loop phases keep a fixed number of
 * requests in flight per connection and time from the send.
 *
 * Every reply is checked as it arrives: byte-identical to the direct
 * answer (RequestMix), an in-order shadow replay for report_usage, or
 * an ok stats reply. Error replies (including "overloaded"), transport
 * errors, byte mismatches and unanswered requests are failures, and a
 * failure's latency is +infinity.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "report.hh"
#include "stream.hh"
#include "serve/service.hh"
#include "util/net.hh"

namespace ramp {
namespace bench {

struct PhaseSpec
{
    /** Distinguishes the seeded streams of phases within a run. */
    std::uint64_t phase = 0;
    bool open_loop = true;
    /** Open loop: total arrival rate over all connections. */
    double rate_rps = 0.0;
    /** Open loop: schedule length. Closed loop: send deadline. */
    double seconds = 0.0;
    /** Closed loop: requests kept in flight per connection. */
    std::size_t window = 16;
    /** Closed loop: stop after this many requests per connection
     *  (0 = run until the deadline). */
    std::size_t count = 0;
    /** Record per-request spans and decode timings. */
    bool trace = false;
};

struct PhaseResult
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t error_replies = 0;
    std::uint64_t transport_errors = 0;
    std::uint64_t unanswered = 0;
    /** Per attempted request, seconds; +inf when it failed. */
    std::vector<double> latency_s;
    /** Open loop: send time minus due time per sent request. */
    std::vector<double> late_s;
    /** Closed loop: ok replies received before the deadline. */
    std::uint64_t completed_in_window = 0;
    double window_s = 0.0;
    /** Most requests one connection had outstanding at once. */
    std::uint64_t inflight_max = 0;
    /** Requests sent per verb (requestTypeName). */
    std::map<std::string, std::uint64_t> sent_by_verb;
    /** The unique-table indices sent, with repeats (traced replay). */
    std::vector<std::uint32_t> unique_sent;
    /** Traced phases: summed encodeRequest and parseReply times. */
    double encode_s = 0.0;
    double decode_s = 0.0;
    std::uint64_t traced = 0;

    double
    rps() const
    {
        return window_s > 0.0
                   ? static_cast<double>(completed_in_window) / window_s
                   : 0.0;
    }

    void merge(PhaseResult other);
};

inline constexpr double failed_latency =
    std::numeric_limits<double>::infinity();

class LoadGen
{
  public:
    /**
     * @param shadow A registry-only service replaying report_usage in
     *        order; must outlive the generator.
     * @param conn_base Index of the first connection. Connection
     *        indices seed the streams and name the chips each
     *        connection owns, so generators sharing a shadow (or a
     *        server) must use disjoint ranges.
     */
    LoadGen(const RequestMix &mix, serve::EvaluationService &shadow,
            std::uint64_t seed, std::size_t connections,
            std::size_t conn_base);

    /** Open every connection to @p port. */
    [[nodiscard]] util::Result<void> connect(std::uint16_t port);

    /** Drive one phase to completion (all replies in or timed out). */
    PhaseResult run(const PhaseSpec &spec, SpanLog *spans);

    /** Close every connection (the server sees clean EOFs). */
    void close();

  private:
    struct Connection
    {
        util::Socket sock;
        std::uint64_t next_id = 1;
        std::uint32_t reports = 0;
    };

    PhaseResult runConnection(std::size_t c, const PhaseSpec &spec,
                              SpanLog *spans,
                              std::chrono::steady_clock::time_point t0);

    const RequestMix &mix_;
    serve::EvaluationService &shadow_;
    std::uint64_t seed_;
    std::size_t conn_base_;
    std::vector<Connection> conns_;
};

} // namespace bench
} // namespace ramp
