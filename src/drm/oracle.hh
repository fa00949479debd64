/**
 * @file
 * Oracle DRM/DTM exploration (paper Section 5).
 *
 * The paper evaluates DRM's potential with an oracle that adapts once
 * per application run: every configuration in the adaptation space is
 * simulated, and the best-performing one that meets the constraint is
 * selected. DRM's constraint is the application FIT value against
 * FIT_target at a given qualification temperature T_qual; DTM's
 * constraint is the hottest on-chip temperature against the thermal
 * design point T_design.
 *
 * Exploration (expensive timing+thermal simulation) is decoupled from
 * selection (cheap FIT evaluation), because the same explored space
 * serves every T_qual / T_design value in a sweep. The split runs
 * through FIT pricing too: exploration stores each point's
 * qualification-independent log rates (core::FitBasis), and a
 * selection only prices them against its qualification's constants.
 */

#pragma once

#include <vector>

#include "core/engine.hh"
#include "core/evaluator.hh"
#include "core/qualification.hh"
#include "drm/adaptation.hh"
#include "drm/eval_cache.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp {
namespace drm {

/** An explored configuration for one application. */
struct ExploredPoint
{
    /** A failed evaluation (singular solve, non-finite temperatures):
     *  op is default-constructed, valid is false, and the point is
     *  excluded from every selection. */
    ExploredPoint() = default;

    /** An evaluated point. Builds its FIT basis from @p point, so a
     *  selection under any qualification only prices it. */
    ExploredPoint(core::OperatingPoint point, double perf);

    /** The evaluation. Not to be modified after construction: the
     *  FIT basis was derived from it. */
    core::OperatingPoint op;
    /** Performance relative to the base machine (1.0 = parity). */
    double perf_rel = 0.0;
    /** False for a failed evaluation. A *non-converged* evaluation is
     *  different -- it is valid but carries op.converged == false. */
    bool valid = false;

    /** op's qualification-independent FIT log rates (empty when
     *  !valid). */
    const core::FitBasis &basis() const { return basis_; }

  private:
    core::FitBasis basis_;
};

/** The full explored space for one application. */
struct ExploredApp
{
    std::string app_name;
    core::OperatingPoint base;         ///< Base-machine operating point.
    std::vector<ExploredPoint> points; ///< One per configuration.
};

/**
 * Result of a DRM or DTM oracle selection.
 *
 * Every selection carries the winner's real application FIT under the
 * qualification it was given -- there is no reliability-oblivious
 * "0.0 FIT" sentinel. Only the winner is described: a selection
 * prices just the points that decide it (see selectDrm/selectDtm).
 */
struct Selection
{
    /** Index into ExploredApp::points; the constrained optimum. */
    std::size_t index = 0;
    /** The winning configuration (copy of the chosen point's). */
    sim::MachineConfig config;
    double perf_rel = 0.0;
    double fit = 0.0;        ///< Application FIT at the chosen point.
    double max_temp_k = 0.0; ///< Hottest structure at the choice.
    /** False when no configuration met the constraint; the selection
     *  then falls back to the least-violating configuration. */
    bool feasible = false;
    /** The chosen point's thermal fixed point converged (always true
     *  under DRM, which never chooses a non-converged point). */
    bool converged = true;
};

/** Application FIT of one operating point under a qualification. */
double operatingPointFit(const core::Qualification &qual,
                         const core::OperatingPoint &op);

/**
 * The per-structure maximum activity across a set of base operating
 * points: the paper's alpha_qual (Section 3.7).
 */
sim::PerStructure<double>
alphaQualFromBaseline(const std::vector<core::OperatingPoint> &base_ops);

/** Explores adaptation spaces for applications. */
class OracleExplorer
{
  public:
    /**
     * @param eval_params Simulation controls shared by every point.
     * @param cache Optional persistent cache for the timing runs;
     *        must outlive the explorer.
     * @param pool Optional thread pool explore() fans points out
     *        across; must outlive the explorer. Null means serial.
     */
    explicit OracleExplorer(core::EvalParams eval_params = {},
                            EvaluationCache *cache = nullptr,
                            util::ThreadPool *pool = nullptr);

    /**
     * Evaluate one (configuration, application) point, via the cache
     * when one is attached. A failed evaluation (singular solve,
     * non-finite temperatures) comes back as a RampError and is never
     * cached; non-convergence is a valid point with
     * op.converged == false.
     */
    [[nodiscard]] util::Result<core::OperatingPoint>
    tryEvaluate(const sim::MachineConfig &cfg,
                const workload::AppProfile &app) const;

    /** tryEvaluate that treats any error as unrecoverable (fatal). */
    core::OperatingPoint evaluate(const sim::MachineConfig &cfg,
                                  const workload::AppProfile &app) const;

    /** Evaluate the base machine only. */
    core::OperatingPoint
    evaluateBase(const workload::AppProfile &app) const;

    /**
     * Evaluate every configuration in a space for one application.
     *
     * With a pool attached the points are evaluated concurrently, but
     * the output is deterministic: results land by configuration
     * index, every evaluation is independently seeded through
     * EvalParams::seed, and cold-cache runs first evaluate one
     * representative per unique timing key (so the work done -- and
     * the record each key caches -- is identical to a serial sweep).
     * Parallel output is bit-identical to serial output.
     *
     * A point whose evaluation fails is dropped, not fatal: it comes
     * back with valid == false (warned and counted in
     * oracle.failed_points), and failure decisions are pure functions
     * of the point's identity, so the dropped set is identical at
     * every thread count.
     */
    ExploredApp explore(const workload::AppProfile &app,
                        AdaptationSpace space) const;

    const core::Evaluator &evaluator() const { return evaluator_; }

    /** Attach/detach a pool after construction (null = serial). */
    void setPool(util::ThreadPool *pool) { pool_ = pool; }

  private:
    /** parallelFor via the pool, or a plain loop without one; either
     *  way items that throw RampException are dropped and reported. */
    [[nodiscard]] util::BatchReport
    forEach(std::size_t count,
            const std::function<void(std::size_t)> &fn) const;

    core::Evaluator evaluator_;
    EvaluationCache *cache_;
    util::ThreadPool *pool_;
};

/**
 * DRM oracle: best perf_rel subject to FIT <= qual target, the lowest
 * index among equally fast points. Falls back to the lowest-FIT point
 * (lowest index on ties) when nothing is feasible. Failed and
 * non-converged points never participate.
 *
 * Points are visited fastest first and the first feasible one wins,
 * so only the points at least as fast as the winner are priced; every
 * converged point is priced only when nothing is feasible.
 */
Selection selectDrm(const ExploredApp &app,
                    const core::Qualification &qual);

/**
 * DTM oracle: best perf_rel subject to maxTemp <= t_design, the
 * lowest index among equally fast points. Falls back to the coolest
 * point (lowest index on ties) when nothing is feasible. Failed
 * points never participate; non-converged ones do.
 *
 * The policy itself is reliability-oblivious -- @p qual never
 * influences which point is chosen -- but the winner's real FIT is
 * priced under @p qual and reported in the result, so DTM selections
 * compare against FIT budgets without sentinels. Only the winner is
 * priced.
 */
Selection selectDtm(const ExploredApp &app, double t_design_k,
                    const core::Qualification &qual);

} // namespace drm
} // namespace ramp

