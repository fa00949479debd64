/**
 * @file
 * The paper's Figure 2 sweep, run cold: every application's ArchDVS
 * space explored from an empty evaluation cache, then DRM selection at
 * T_qual 400/370/345/325 K -- the same calls bench_fig2_archdvs makes,
 * so the winners match its table.
 *
 * runSweep() times the real OracleExplorer::explore path.
 * runTracedSweep() drives every cold point itself (trace generation,
 * cycle simulation, thermal fixed point, cache put), each timed from
 * outside, then explores the now-warm cache and selects; its digests
 * must equal the untraced ones.
 */

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hh"
#include "drm/eval_cache.hh"
#include "drm/oracle.hh"
#include "report.hh"
#include "workload/profile.hh"

namespace ramp {
namespace bench {

/** The Figure 2 qualification temperatures, in column order. */
inline constexpr std::array<double, 4> fig2_t_quals_k = {400.0, 370.0,
                                                         345.0, 325.0};

/** Leakage is evaluated at no more than this temperature; a winner at
 *  or above it sits where the clamp engages (core/evaluator.cc). */
inline constexpr double leak_clamp_k = 450.0;

struct SweepOptions
{
    core::EvalParams params;
    unsigned threads = 1;
    /** Truncate the suite to its first N applications; 0 = all. */
    std::size_t max_apps = 0;
};

/** What a sweep produced, untraced or traced. */
struct SweepResult
{
    /** First simulation to last selection, wall. */
    double seconds = 0.0;
    std::vector<workload::AppProfile> apps;
    /** Base operating points in app order (alpha_qual's source). */
    std::vector<core::OperatingPoint> base_ops;
    /** Winners, app-major, fig2_t_quals_k order within an app. */
    std::vector<drm::Selection> winners;
    /** The winners' operating points, same order. */
    std::vector<core::OperatingPoint> winner_ops;
    /** Cache misses during the sweep (one per unique timing key). */
    std::size_t cache_misses = 0;
    /** Points dropped because their evaluation failed. */
    std::size_t failed_points = 0;
};

/** Layer breakdown of a traced sweep; times are summed over threads
 *  unless named _wall. */
struct SweepLayers
{
    double wall_s = 0.0;
    unsigned threads = 1;
    double gen_s = 0.0;
    std::uint64_t gen_uops = 0;
    double sim_self_s = 0.0;
    std::uint64_t sim_cycles = 0;
    std::uint64_t sim_retired = 0;
    double fixed_point_s = 0.0;
    std::uint64_t cold_points = 0;
    double cache_key_s = 0.0;
    double cache_put_s = 0.0;
    /** explore() over the warm cache, wall, summed over apps. */
    double explore_wall_s = 0.0;
    /** selectDrm on the calling thread, summed. */
    double select_wall_s = 0.0;
    std::uint64_t selections = 0;
    /** Pool capacity not spent inside a work item. */
    double idle_s = 0.0;
    /** Mean fixed-point iterations over the traced sweep. */
    double fixed_point_iters = 0.0;

    double capacity_s() const { return wall_s * threads; }
};

/** The Figure 2 sweep through OracleExplorer::explore. @p cache must
 *  start empty; it holds every timing record afterwards. */
SweepResult runSweep(const SweepOptions &opts, drm::EvaluationCache &cache);

/** The same sweep, decomposed and timed layer by layer into @p layers
 *  and @p spans. @p cache must start empty. */
SweepResult runTracedSweep(const SweepOptions &opts,
                           drm::EvaluationCache &cache, SpanLog &spans,
                           SweepLayers &layers);

/** Digest of the winners: index, feasibility, and the bits of
 *  perf_rel and FIT, in order. */
std::string winnersDigest(const SweepResult &sweep);

/** Digest of the CoreStats, ActivitySample and miss-ratio bits of
 *  every (app, microarchitecture) timing record in @p cache. */
std::string pointsDigest(const SweepResult &sweep,
                         const core::EvalParams &params,
                         drm::EvaluationCache &cache);

/** Physical checks on a sweep: every winner converged and ran below
 *  the leakage clamp, nothing was dropped. */
void checkSweep(const SweepResult &sweep, RunRecord &run);

/** Per-call kernel times on the sweep's own activity samples. */
struct KernelTimes
{
    double cache_get_us = 0.0;
    double power_us = 0.0;
    double thermal_us = 0.0;
    double fit_us = 0.0;
};

KernelTimes timeKernels(const SweepResult &sweep,
                        const core::EvalParams &params,
                        const drm::EvaluationCache &cache);

} // namespace bench
} // namespace ramp
