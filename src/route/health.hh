/**
 * @file
 * Per-backend health state for the router.
 *
 * Three states per backend, driven by two evidence streams -- the
 * probe thread's periodic stats round trips and passive observation
 * of forwarding failures:
 *
 *   Healthy --failure--> Suspect --N consecutive--> Down
 *      ^                    |                         |
 *      +----- success ------+------- success --------+
 *
 * Suspect backends stay routable (one failure is usually a blip --
 * taking a shard out of rotation on a single timeout would turn
 * every transient into a full remap); only Down backends are skipped
 * by the ring walk. Any success snaps the backend straight back to
 * Healthy -- the daemon either answers frames or it does not, so
 * there is no need for a sticky half-open probation.
 *
 * Transitions are counted (route.health_up / route.health_down) and
 * the healthy population is exported as a gauge, so a bench can
 * assert it *saw* the kill and the recovery, not just that the run
 * passed.
 */

#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "util/json.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace route {

/** One backend's health classification. */
enum class HealthState : std::uint8_t {
    Healthy, ///< Answering; preferred placement.
    Suspect, ///< Recent failure; still routable.
    Down,    ///< fail_threshold consecutive failures; skipped.
};

/** "healthy" / "suspect" / "down". */
const char *healthStateName(HealthState s);

/** Thread-safe health table over backend indices [0, n). */
class HealthTable
{
  public:
    /** @param backends Backend count.
     *  @param fail_threshold Consecutive failures before Down. */
    explicit HealthTable(std::size_t backends,
                         int fail_threshold = 2);

    std::size_t size() const { return size_; }

    HealthState state(std::size_t i) const;

    /** True unless Down (Suspect backends stay routable). */
    bool usable(std::size_t i) const;

    /** A probe or forward succeeded: snap to Healthy. */
    void observeSuccess(std::size_t i);

    /** A probe or forward failed: Healthy -> Suspect; at
     *  fail_threshold consecutive failures -> Down. */
    void observeFailure(std::size_t i);

    /** Backends currently not Down. */
    std::size_t usableCount() const;

    /** Lifetime transition tallies (stats replies and the bench). */
    std::uint64_t transitionsUp() const { return ups_.value(); }
    std::uint64_t transitionsDown() const { return downs_.value(); }

    /** Per-backend state array for stats replies:
     *  [{"state":...,"consecutive_failures":N}, ...]. */
    util::JsonValue toJson() const;

  private:
    struct Entry
    {
        HealthState state = HealthState::Healthy;
        int consecutive_failures = 0;
    };

    std::size_t size_ = 0;
    int fail_threshold_ = 2;

    /** Backends not Down; caller holds mu_. */
    std::size_t usableLocked() const;

    mutable std::mutex mu_;
    // ramp-lint: guarded_by(mu_)
    std::vector<Entry> entries_;

    telemetry::Tally ups_{telemetry::counter("route.health_up")};
    telemetry::Tally downs_{telemetry::counter("route.health_down")};
    telemetry::Gauge healthy_gauge_ =
        telemetry::gauge("route.healthy_backends");
};

} // namespace route
} // namespace ramp
