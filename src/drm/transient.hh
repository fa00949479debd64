/**
 * @file
 * Closed-loop transient DRM/DTM simulation.
 *
 * Runs an application on the base microarchitecture with a live DVS
 * ladder, a transient RC thermal model, the RAMP engine accumulating
 * FIT over time, and a feedback controller (DRM steering on the
 * lifetime-average FIT, DTM on the instantaneous hottest block).
 *
 * Timing note: block thermal time constants are milliseconds and the
 * heat sink's is minutes, while cycle-level simulation covers only
 * fractions of a millisecond per interval. Exactly like the paper
 * (which evaluates temperature at 1 s granularity over much shorter
 * simulated windows), each measured interval is taken as
 * representative of a longer wall-clock span: the measured activity
 * is held for `represented_time_s` when advancing the thermal state
 * and the FIT clock. The heat sink is initialised with the
 * steady-state two-pass method (Section 6.3).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hh"
#include "core/qualification.hh"
#include "drm/adaptation.hh"
#include "drm/controller.hh"
#include "fault/sensor_channel.hh"
#include "power/power.hh"
#include "thermal/model.hh"
#include "workload/profile.hh"

namespace ramp {
namespace drm {

/** Which feedback policy drives the DVS ladder. */
enum class Policy {
    None, ///< Pin the base operating point (4 GHz / 1.0 V).
    Drm,  ///< DrmController on lifetime-average FIT.
    Dtm,  ///< DtmController on instantaneous max temperature.
};

/** Controls for a transient run. */
struct TransientParams
{
    std::uint64_t interval_uops = 60'000;  ///< Simulated per interval.
    double represented_time_s = 0.1;       ///< Wall time per interval.
    std::uint32_t num_intervals = 120;
    std::uint64_t warmup_uops = 200'000;
    std::uint64_t seed = 1;

    DrmController::Params drm{};
    DtmController::Params dtm{};
    power::PowerParams power{};
    thermal::ThermalParams thermal{};

    /** Conditioning in front of the DTM controller's temperature
     *  input. Valid unspiked readings pass through bit-exactly, so a
     *  fault-free run is unchanged by the channel's presence. The
     *  spike threshold must clear the largest legitimate
     *  interval-to-interval swing -- level changes move near-steady
     *  block temperatures by tens of kelvin -- so it only rejects
     *  physically impossible jumps. */
    fault::SensorChannel::Params temp_channel{
        .label = "dtm.temp",
        .min_valid = 250.0,
        .max_valid = 1000.0,
        .spike_threshold = 40.0,
        .failsafe_after = 5,
        .release_after = 3,
        .stuck_after = 3,
    };
    /** Conditioning in front of the DRM controller's FIT input. The
     *  lifetime average moves slowly, so despiking stays off and
     *  plausibility plus stuck-at detection carry the weight. */
    fault::SensorChannel::Params fit_channel{
        .label = "drm.fit",
        .min_valid = 0.0,
        .max_valid = 1e9,
        .spike_threshold = 0.0,
        .failsafe_after = 5,
        .release_after = 3,
        .stuck_after = 0,
    };
    /** Ladder level forced while a channel is in fail-safe. Level 0
     *  is the bottom of the ladder: lowest frequency/voltage, the
     *  safest point for both temperature and wear. */
    std::size_t failsafe_level = 0;
};

/** One interval of the recorded trace. */
struct TransientSample
{
    std::size_t level = 0;        ///< DVS ladder index used.
    double frequency_ghz = 0.0;
    double voltage_v = 0.0;
    double ipc = 0.0;
    double max_temp_k = 0.0;      ///< Hottest block after the step (true).
    double total_power_w = 0.0;
    double avg_fit = 0.0;         ///< Lifetime-average FIT so far (true).
    /** What the controller saw: the (possibly faulted) reading after
     *  SensorChannel conditioning. Equal to the true values on a
     *  fault-free run. */
    double sensed_temp_k = 0.0;
    double sensed_fit = 0.0;
    /** The active channel's fail-safe latch was engaged after this
     *  interval's reading (it forces the next interval's level). */
    bool failsafe = false;
};

/** Outcome of a transient run. */
struct TransientResult
{
    std::vector<TransientSample> trace;
    double final_avg_fit = 0.0;
    /** Mean absolute performance (retired uops per second); compare
     *  against a Policy::None run of the same app for a relative
     *  number. */
    double avg_uops_per_second = 0.0;
    double max_temp_seen_k = 0.0;
    std::uint64_t level_transitions = 0;

    /** Fault-injection and graceful-degradation tallies for the run.
     *  All zero on a fault-free run. */
    struct Degradation
    {
        std::uint64_t injected_faults = 0;   ///< Sensor + power faults.
        std::uint64_t invalid_readings = 0;  ///< Rejected by a channel.
        std::uint64_t fallbacks = 0;         ///< Last-known-good used.
        std::uint64_t despiked = 0;          ///< Median-replaced readings.
        std::uint64_t failsafe_engages = 0;  ///< Fail-safe latch entries.
        std::uint64_t failsafe_intervals = 0;///< Intervals at forced level.
        std::uint64_t power_holds = 0;       ///< Non-finite power held.
    };
    Degradation degradation;

    /** Intervals whose hottest block exceeded the given limit. */
    std::uint32_t thermalViolations(double t_design_k) const;
};

/** The closed-loop runner. */
class TransientRunner
{
  public:
    explicit TransientRunner(TransientParams params = {});

    /**
     * Run one application under the given policy and qualification.
     * Deterministic in all inputs.
     */
    TransientResult run(const workload::AppProfile &app,
                        const core::Qualification &qual,
                        Policy policy) const;

    const TransientParams &params() const { return params_; }

  private:
    TransientParams params_;
};

} // namespace drm
} // namespace ramp

