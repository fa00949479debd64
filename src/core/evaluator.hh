/**
 * @file
 * Operating-point evaluation: timing simulation + power + thermal
 * fixed point (the paper's Section 6.3 methodology).
 *
 * The paper runs every simulation twice: once to collect average
 * per-structure power, then a steady-state solve to initialise the
 * heat sink, then the measured run. We reproduce that as a fixed
 * point: the timing simulator produces activity factors; dynamic
 * power follows from activity, leakage from temperature; block
 * temperatures follow from total power through the RC network; and
 * leakage feeds back into power until the loop converges (a couple
 * of iterations -- the leakage-temperature loop is a contraction at
 * these operating points).
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "power/power.hh"
#include "sim/core.hh"
#include "sim/machine.hh"
#include "thermal/model.hh"
#include "util/error.hh"
#include "workload/profile.hh"

namespace ramp {
namespace core {

/** Everything known about one (application, configuration) pairing. */
struct OperatingPoint
{
    sim::MachineConfig config;
    sim::ActivitySample activity;        ///< Measured interval.
    sim::CoreStats stats;                ///< Cumulative measured stats.
    power::PowerBreakdown power;         ///< Converged power.
    sim::PerStructure<double> temps_k{}; ///< Converged steady temps.
    double sink_temp_k = 0.0;

    /** False when the leakage/thermal fixed point stopped at its
     *  iteration limit (or was fault-forced there): the temperatures
     *  are an unconverged iterate, and reliability management must
     *  not trust them. */
    bool converged = true;

    /** Cache behaviour over the measured region (evaluate() only;
     *  zero when the point came from convergeThermal()). */
    double l1d_miss_ratio = 0.0;
    double l1i_miss_ratio = 0.0;
    double l2_miss_ratio = 0.0;

    /** Retired micro-ops per cycle. */
    double ipc() const { return activity.ipc(); }

    /** Absolute performance: retired micro-ops per second. */
    double uopsPerSecond() const
    {
        return ipc() * config.frequency_ghz * 1e9;
    }

    /** Hottest structure temperature (the DTM constraint). */
    double maxTemp() const { return sim::maxOf(temps_k); }

    /** Area-weighted average temperature. */
    double avgTemp() const { return sim::areaWeightedMean(temps_k); }

    /** Total chip power in watts. */
    double totalPower() const { return power.total(); }
};

/**
 * The measured (timing) half of one evaluation: the interval the
 * power/thermal fixed point starts from, plus cache behaviour. This
 * is all a simulation produces, and what drm::EvaluationCache keeps.
 */
struct Measurement
{
    sim::ActivitySample activity;
    sim::CoreStats stats;
    double l1d_miss_ratio = 0.0;
    double l1i_miss_ratio = 0.0;
    double l2_miss_ratio = 0.0;
};

/** Evaluation controls. */
struct EvalParams
{
    /** Micro-ops run before measurement starts. Sized so the L2 is
     *  warm for every L2-resident working set in the suite (streaming
     *  covers ~800KB of data in 600k uops at typical load mixes). */
    std::uint64_t warmup_uops = 600'000;

    /** Micro-ops measured. */
    std::uint64_t measure_uops = 600'000;

    /** Workload generator seed. */
    std::uint64_t seed = 1;

    /** Leakage/thermal fixed-point iteration limit and tolerance.
     *  Near thermal runaway the damped loop contracts at only ~0.8x
     *  per iteration, so the limit leaves headroom. */
    std::uint32_t max_iterations = 100;
    double tolerance_k = 0.01;

    /** Disable the leakage-temperature feedback (ablation knob):
     *  leakage is then evaluated at the reference 383 K density
     *  regardless of the actual block temperature. */
    bool leakage_feedback = true;

    power::PowerParams power_params{};
    thermal::ThermalParams thermal_params{};
};

/** Outcome of one leakage/thermal fixed point, indexed by tile. */
struct ThermalFixedPoint
{
    /** Converged (or last) block temperatures per tile. */
    std::vector<sim::PerStructure<double>> temps_k;
    /** Power per tile, leakage at the (clamped) final temperatures. */
    std::vector<power::PowerBreakdown> power;
    double sink_k = 0.0;
    std::uint32_t iterations = 0;
    double residual_k = 0.0; ///< Worst block change, last iteration.
    bool converged = false;  ///< residual_k < EvalParams::tolerance_k.
};

/** One problem of a batched fixed point: one power model and one
 *  dynamic power map per tile of the network. */
struct LeakageLane
{
    std::span<const power::PowerModel> pmodels;
    thermal::TileMaps dynamic_w;
};

/**
 * The power/thermal fixed point (paper Section 6.3) over any tile
 * count, for a batch of independent problems (lanes) against one
 * network: leakage from each tile's temperatures, one steady solve
 * of the whole network, damped updates until every block moves less
 * than the tolerance. A singular solve or non-finite temperatures
 * are errors; hitting the iteration limit is not (converged ==
 * false). Leakage is evaluated at no more than 450 K; fixed points
 * that end with the clamp engaged are counted (evaluator.leak_clamped),
 * and so are those that stop within the last 10% of
 * EvalParams::max_iterations (evaluator.near_limit).
 *
 * The lanes iterate in step, and each iteration solves every lane
 * still running in one pass over the eliminated network. Everything
 * else -- leakage, damping, the residual test, the clamp and
 * near-limit counters, the iteration limit, errors -- is per lane,
 * and each lane stops at its own iteration. A lane never meets
 * another lane's numbers, so its result (and every counter) is bit
 * for bit what it gets converged alone. Results land by lane.
 */
[[nodiscard]] std::vector<util::Result<ThermalFixedPoint>>
tryConvergeLeakage(const thermal::ThermalModel &network,
                   std::span<const LeakageLane> lanes,
                   const EvalParams &params);

/** One problem: a batch of one lane. */
[[nodiscard]] util::Result<ThermalFixedPoint>
tryConvergeLeakage(const thermal::ThermalModel &network,
                   std::span<const power::PowerModel> pmodels,
                   thermal::TileMaps dynamic_w, const EvalParams &params);

/**
 * Evaluates (application, machine) operating points. Stateless apart
 * from its parameters and the one thermal network they describe
 * (built once, read-only afterwards); safe to reuse across calls and
 * threads.
 */
class Evaluator
{
  public:
    explicit Evaluator(EvalParams params = {});

    /**
     * Run the workload on the machine and converge the power/thermal
     * loop. Deterministic in (profile, cfg, params). A singular
     * thermal solve or non-finite temperatures come back as a
     * RampError (a recoverable per-point failure); hitting the
     * fixed-point iteration limit is NOT an error -- the point is
     * returned with converged == false for the caller to judge.
     */
    [[nodiscard]] util::Result<OperatingPoint>
    tryEvaluate(const sim::MachineConfig &cfg,
                const workload::AppProfile &profile) const;

    /** tryEvaluate that treats any error as unrecoverable (fatal). */
    OperatingPoint evaluate(const sim::MachineConfig &cfg,
                            const workload::AppProfile &profile) const;

    /**
     * The timing half of tryEvaluate: run the workload on the machine
     * and return the measured interval. Deterministic in (profile,
     * cfg, params); cannot fail.
     */
    Measurement simulate(const sim::MachineConfig &cfg,
                         const workload::AppProfile &profile) const;

    /**
     * Power/thermal fixed point for an already-measured activity
     * sample (used by the DRM oracle to re-derive temperatures and by
     * ablations). Error/convergence semantics as tryEvaluate; the
     * point's miss ratios are zero.
     */
    [[nodiscard]] util::Result<OperatingPoint>
    tryConvergeThermal(const sim::MachineConfig &cfg,
                       const sim::ActivitySample &activity,
                       const sim::CoreStats &stats) const;

    /**
     * The fixed points of a batch of measured points, converged in
     * step (see the batched tryConvergeLeakage): point i is @p cfgs[i]
     * measured as *@p measured[i], and carries that measurement's
     * miss ratios. Results land by index, each bit for bit (counters
     * and fault hook included) what the point gets converged alone.
     */
    [[nodiscard]] std::vector<util::Result<OperatingPoint>>
    tryConvergeThermal(std::span<const sim::MachineConfig> cfgs,
                       std::span<const Measurement *const> measured) const;

    /** tryConvergeThermal that treats any error as unrecoverable. */
    OperatingPoint
    convergeThermal(const sim::MachineConfig &cfg,
                    const sim::ActivitySample &activity,
                    const sim::CoreStats &stats) const;

    const EvalParams &params() const { return params_; }

  private:
    EvalParams params_;
    thermal::ThermalModel network_; ///< From params_.thermal_params.
};

} // namespace core
} // namespace ramp

