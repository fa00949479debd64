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

#include <span>
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

struct ExploredApp;

/**
 * An exploration's points, one per configuration in configSpace
 * order: readable by index and by range-for, written only by
 * ExploredApp's constructor, so the ranking it keeps always matches.
 */
class PointList
{
  public:
    PointList() = default;

    const ExploredPoint &operator[](std::size_t i) const
    {
        return points_[i];
    }
    std::size_t size() const { return points_.size(); }
    bool empty() const { return points_.empty(); }
    auto begin() const { return points_.cbegin(); }
    auto end() const { return points_.cend(); }

  private:
    friend struct ExploredApp;
    explicit PointList(std::vector<ExploredPoint> points)
        : points_(std::move(points))
    {
    }

    std::vector<ExploredPoint> points_;
};

/**
 * The full explored space for one application. Its points are ranked
 * once, when it is built, and cannot change afterwards; replacing the
 * whole exploration is the only way to change them.
 */
struct ExploredApp
{
    /** An empty exploration. */
    ExploredApp() = default;

    /** An exploration of @p points (one per configuration), ranked
     *  fastest-first here, once. */
    ExploredApp(std::string app_name, core::OperatingPoint base,
                std::vector<ExploredPoint> points);

    std::string app_name;
    core::OperatingPoint base; ///< Base-machine operating point.
    PointList points;          ///< One per configuration.

    /**
     * The valid points with perf_rel >= 0, perf_rel descending, ties
     * by ascending index: the order a selection visits them. The
     * first feasible point in this order is the best-performing
     * feasible one, and among equals the lowest-indexed -- exactly
     * what a full scan keeping the first strictly faster feasible
     * point picks. perf_rel is a ratio of speeds, so a negative (or
     * NaN) value marks a corrupt point: it can still be a fallback,
     * but never ranks.
     */
    const std::vector<std::size_t> &fastestFirst() const
    {
        return fastest_first_;
    }

  private:
    std::vector<std::size_t> fastest_first_;
};

/** One (application, space) of a multi-space exploration. */
struct ExploreTask
{
    const workload::AppProfile *app = nullptr;
    AdaptationSpace space = AdaptationSpace::ArchDvs;
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
     * EvalParams::seed, and each unique timing key is simulated at
     * most once, before any point converges (so the work done -- and
     * the record each key caches -- is identical to a serial sweep).
     * Parallel output is bit-identical to serial output, and a cold
     * cache misses exactly once per unique timing key.
     *
     * A point whose evaluation fails is dropped, not fatal: it comes
     * back with valid == false (warned and counted in
     * oracle.failed_points), and failure decisions are pure functions
     * of the point's identity, so the dropped set is identical at
     * every thread count.
     */
    ExploredApp explore(const workload::AppProfile &app,
                        AdaptationSpace space) const;

    /**
     * explore() for several (application, space) pairs in one pass,
     * each result bit for bit what explore() gives it; results land
     * by task. It works in two steps:
     *  1. One record per unique timing key across every task: a
     *     cache get, or on a miss a simulation followed by a put (all
     *     misses simulate in one pool batch). Without a cache every
     *     point is its own record and is simulated.
     *  2. Every point converges from its record, a few points per
     *     item (the batched fixed point), in one pool batch.
     * The calling thread allocates the explorations; pool items only
     * fill them.
     */
    std::vector<ExploredApp>
    explore(std::span<const ExploreTask> tasks) const;

    /**
     * Whether the cache holds the timing record of every point of
     * (@p app, @p space), base machine included, so exploring it
     * simulates nothing. Probes with contains(), so it counts no
     * hit or miss. False without a cache.
     */
    bool cached(const workload::AppProfile &app,
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
 * so only the points at least as fast as the winner are priced, and
 * each of those only until its FIT provably exceeds the target
 * (core::Qualification::fitWithin): the winner alone is priced in
 * full. Every converged point is priced in full only when nothing is
 * feasible.
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

