/**
 * @file
 * Closed-loop DRM and DTM controllers (the paper's Section 8 future
 * work: "specific adaptive control algorithms").
 *
 * Reliability is a *budget over time* (Section 4): unlike
 * temperature, which must be capped instantaneously, FIT can be
 * banked during cool phases and spent during hot ones. The DRM
 * controller therefore steers on the *lifetime-average* FIT:
 *
 *   error = avg_fit_so_far - target
 *
 * stepping the DVS ladder down when the budget is overspent and up
 * when enough slack has accumulated. Hysteresis (distinct up/down
 * thresholds) prevents level oscillation on the discrete ladder.
 *
 * The DTM controller is the paper's reference point: purely reactive
 * on the current hottest-block temperature against the thermal
 * design point, with a guard band.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/telemetry.hh"

namespace ramp {
namespace drm {

/**
 * The DVS-ladder walk both controllers share. An observation while
 * settling only counts the cooldown down; otherwise the ladder steps
 * one rung down when the controller says its signal is too high,
 * else one rung up when it is low enough, never past either end.
 * Each change counts as a transition, restarts the cooldown, and is
 * reported as `<scope>.level_changes` and a `<scope>.level_change`
 * trace instant.
 */
class LadderStepper
{
  public:
    /**
     * @param owner Controller name for construction errors.
     * @param scope Metric scope and trace category ("drm", "dtm").
     * @param num_levels Size of the DVS ladder (> 0).
     * @param start_level Initial ladder index (< num_levels).
     * @param settle_intervals Observations held after each change.
     */
    LadderStepper(const char *owner, const char *scope,
                  std::size_t num_levels, std::size_t start_level,
                  std::uint32_t settle_intervals);

    /**
     * One observation of @p signal, whose thresholds the caller has
     * already applied: @p too_high asks for a step down, @p too_low
     * for a step up. Returns the level for the next interval.
     */
    std::size_t step(bool too_high, bool too_low, double signal);

    std::size_t level() const { return level_; }
    std::uint64_t transitions() const { return transitions_; }

  private:
    const char *scope_;
    std::string change_instant_;
    telemetry::Counter changes_;
    std::size_t num_levels_;
    std::size_t level_;
    std::uint32_t settle_intervals_;
    std::uint32_t cooldown_ = 0;
    std::uint64_t transitions_ = 0;
};

/** DRM feedback controller over a discrete DVS ladder. */
class DrmController
{
  public:
    struct Params
    {
        /** Lifetime FIT target (the qualification target). */
        double target_fit = 4000.0;
        /** Fractional overshoot that triggers a step down. */
        double down_margin = 0.02;
        /** Fractional slack that allows a step up. */
        double up_margin = 0.10;
        /** Minimum intervals between level changes (settling). */
        std::uint32_t settle_intervals = 3;
    };

    /**
     * @param params Control constants.
     * @param num_levels Size of the DVS ladder (> 0).
     * @param start_level Initial ladder index (< num_levels).
     */
    DrmController(Params params, std::size_t num_levels,
                  std::size_t start_level);

    /**
     * Feed one interval's lifetime-average FIT; returns the ladder
     * level to run the next interval at.
     */
    std::size_t observe(double avg_fit_so_far);

    /** Current ladder level. */
    std::size_t level() const { return ladder_.level(); }

    /** Number of level changes so far. */
    std::uint64_t transitions() const { return ladder_.transitions(); }

  private:
    Params params_;
    LadderStepper ladder_;
};

/** Reactive DTM controller: cap the current hottest temperature. */
class DtmController
{
  public:
    struct Params
    {
        /** Thermal design point (K). */
        double t_design_k = 370.0;
        /** Guard band below the limit before stepping back up (K). */
        double guard_k = 3.0;
        /** Minimum intervals between level changes. */
        std::uint32_t settle_intervals = 2;
    };

    DtmController(Params params, std::size_t num_levels,
                  std::size_t start_level);

    /** Feed the current hottest block temperature (K). */
    std::size_t observe(double max_temp_k);

    std::size_t level() const { return ladder_.level(); }
    std::uint64_t transitions() const { return ladder_.transitions(); }

  private:
    Params params_;
    LadderStepper ladder_;
};

} // namespace drm
} // namespace ramp

