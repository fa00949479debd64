/**
 * @file
 * Chip-level operating-point evaluation: per-core timing simulation
 * fanned across the thread pool, then one *coupled* power/thermal
 * fixed point over the whole chip.
 *
 * Timing is temperature-independent, so each core's activity sample
 * is exactly the single-core evaluation's (and comes from the shared
 * evaluation cache when warm). The fixed point is the single-core
 * one (core::tryConvergeLeakage) run over the chip's N-tile network:
 * dynamic power per core from activity, leakage from each core's
 * (clamped) temperatures, one coupled steady-state solve per
 * iteration. Per-core results land by core index, so cold runs are
 * bit-identical at any thread count.
 */

#pragma once

#include <vector>

#include "cmp/floorplan.hh"
#include "core/evaluator.hh"
#include "drm/oracle.hh"
#include "thermal/model.hh"
#include "util/error.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp {
namespace cmp {

/** Everything known about one chip configuration under one mix. */
struct ChipOperatingPoint
{
    /** Per-core points with chip-coupled temperatures and power;
     *  activity and stats are the single-core evaluation's. */
    std::vector<core::OperatingPoint> cores;
    double sink_temp_k = 0.0;

    /** False when the coupled fixed point stopped at its iteration
     *  limit; the temperatures are an unconverged iterate. */
    bool converged = true;

    /** Chip throughput: summed retired micro-ops per second. */
    double uopsPerSecond() const;

    /** Hottest structure temperature across the chip. */
    double maxTemp() const;
};

/**
 * Evaluates chip operating points over a fixed floorplan. Stateless
 * apart from its construction parameters; safe to reuse.
 */
class ChipEvaluator
{
  public:
    /**
     * @param floorplan Tile placement.
     * @param explorer Single-core evaluation path (cache-backed);
     *        must outlive the evaluator. Its EvalParams also supply
     *        the power/thermal constants of the coupled solve.
     * @param pool Pool the per-core timing runs fan out across; must
     *        outlive the evaluator. Null means serial.
     */
    ChipEvaluator(const ChipFloorplan &floorplan,
                  const drm::OracleExplorer *explorer,
                  util::ThreadPool *pool = nullptr);

    /**
     * Evaluate one app and one configuration per core (both indexed
     * by core; sizes must match the floorplan -- panic otherwise).
     * A failed per-core evaluation or a singular chip solve comes
     * back as a RampError; like the single-core evaluator, hitting
     * the fixed-point iteration limit is NOT an error -- the point
     * is returned with converged == false.
     */
    [[nodiscard]] util::Result<ChipOperatingPoint>
    tryEvaluate(const std::vector<const workload::AppProfile *> &apps,
                const std::vector<sim::MachineConfig> &cfgs) const;

    std::size_t numCores() const { return thermal_.numTiles(); }

  private:
    thermal::ThermalModel thermal_;
    const drm::OracleExplorer *explorer_;
    util::ThreadPool *pool_;
};

} // namespace cmp
} // namespace ramp
