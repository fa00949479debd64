#include "drm/oracle.hh"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "power/power.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace drm {

namespace {

struct OracleMetrics
{
    telemetry::Counter explores =
        telemetry::counter("oracle.explores");
    telemetry::Counter points = telemetry::counter("oracle.points");
    /** Points dropped from explorations (evaluation errors). */
    telemetry::Counter failed_points =
        telemetry::counter("oracle.failed_points");
    /** Wall time of one explore() (all points, both passes). */
    telemetry::Histogram explore_s =
        telemetry::histogram("oracle.explore_s", 0.0, 60.0, 60);
};

OracleMetrics &
oracleMetrics()
{
    static OracleMetrics m;
    return m;
}

/** The FIT basis of an evaluated point: its powered-on fractions,
 *  temperatures, activity, and DVS level. */
core::FitBasis
fitBasis(const core::OperatingPoint &op)
{
    return core::FitBasis(power::poweredFractions(op.config), op.temps_k,
                          op.activity.activity, op.config.voltage_v,
                          op.config.frequency_ghz);
}

} // namespace

ExploredPoint::ExploredPoint(core::OperatingPoint point, double perf)
    : op(std::move(point)), perf_rel(perf), valid(true),
      basis_(fitBasis(op))
{
}

double
operatingPointFit(const core::Qualification &qual,
                  const core::OperatingPoint &op)
{
    return qual.price(fitBasis(op), op.temps_k).totalFit();
}

sim::PerStructure<double>
alphaQualFromBaseline(const std::vector<core::OperatingPoint> &base_ops)
{
    if (base_ops.empty())
        util::fatal("alphaQualFromBaseline needs at least one app");
    // Section 3.7: alpha_qual is "the highest activity factor
    // obtained across our application suite" -- a single worst-case
    // number, applied to every structure. (Per-structure maxima
    // would under-provision the qualification margin the paper's
    // over-design results rely on.)
    double alpha = 0.0;
    for (const auto &op : base_ops)
        for (double a : op.activity.activity)
            alpha = std::max(alpha, a);
    sim::PerStructure<double> out;
    out.fill(alpha);
    return out;
}

OracleExplorer::OracleExplorer(core::EvalParams eval_params,
                               EvaluationCache *cache,
                               util::ThreadPool *pool)
    : evaluator_(eval_params), cache_(cache), pool_(pool)
{
}

util::BatchReport
OracleExplorer::forEach(std::size_t count,
                        const std::function<void(std::size_t)> &fn) const
{
    if (pool_)
        return pool_->parallelFor(count, fn);
    util::BatchReport report;
    report.items = count;
    for (std::size_t i = 0; i < count; ++i) {
        try {
            fn(i);
        } catch (const util::RampException &e) {
            report.failures.emplace_back(i, e.error());
        }
    }
    return report;
}

util::Result<core::OperatingPoint>
OracleExplorer::tryEvaluate(const sim::MachineConfig &cfg,
                            const workload::AppProfile &app) const
{
    if (!cache_)
        return evaluator_.tryEvaluate(cfg, app);

    const std::string key =
        EvaluationCache::key(cfg, app, evaluator_.params());
    if (auto hit = cache_->get(key)) {
        auto result =
            evaluator_.tryConvergeThermal(cfg, hit->activity,
                                          hit->stats);
        if (!result)
            return result;
        core::OperatingPoint &op = result.value();
        op.l1d_miss_ratio = hit->l1d_miss_ratio;
        op.l1i_miss_ratio = hit->l1i_miss_ratio;
        op.l2_miss_ratio = hit->l2_miss_ratio;
        return result;
    }

    auto result = evaluator_.tryEvaluate(cfg, app);
    if (!result)
        return result; // failed evaluations are never cached
    const core::OperatingPoint &op = result.value();
    CachedEvaluation rec;
    rec.activity = op.activity;
    rec.stats = op.stats;
    rec.l1d_miss_ratio = op.l1d_miss_ratio;
    rec.l1i_miss_ratio = op.l1i_miss_ratio;
    rec.l2_miss_ratio = op.l2_miss_ratio;
    cache_->put(key, rec);
    return result;
}

core::OperatingPoint
OracleExplorer::evaluate(const sim::MachineConfig &cfg,
                         const workload::AppProfile &app) const
{
    auto result = tryEvaluate(cfg, app);
    if (!result)
        util::fatal(util::cat("oracle evaluate: ",
                              result.error().str()));
    return std::move(result.value());
}

core::OperatingPoint
OracleExplorer::evaluateBase(const workload::AppProfile &app) const
{
    return evaluate(sim::baseMachine(), app);
}

ExploredApp
OracleExplorer::explore(const workload::AppProfile &app,
                        AdaptationSpace space) const
{
    auto &metrics = oracleMetrics();
    metrics.explores.add();
    telemetry::ScopedTimer timer(metrics.explore_s, "explore",
                                 "oracle");

    ExploredApp out;
    out.app_name = app.name;
    out.base = evaluateBase(app);
    const double base_perf = out.base.uopsPerSecond();

    const auto cfgs = configSpace(space);
    metrics.points.add(cfgs.size());
    timer.arg("points", static_cast<double>(cfgs.size()));
    out.points.resize(cfgs.size());
    auto eval_point = [&](std::size_t i) {
        auto result = tryEvaluate(cfgs[i], app);
        if (!result)
            throw util::RampException(result.error());
        const double perf_rel =
            result.value().uopsPerSecond() / base_perf;
        out.points[i] = ExploredPoint(std::move(result.value()), perf_rel);
    };
    // Failed points are dropped by forEach and marked invalid here;
    // each decision is a pure function of the point, so the dropped
    // set (and thus the output) is identical at every thread count.
    auto mark_failures = [&](const util::BatchReport &report,
                             const std::vector<std::size_t> &index) {
        for (const auto &[n, err] : report.failures) {
            const std::size_t i = index.empty() ? n : index[n];
            out.points[i] = ExploredPoint{};
            metrics.failed_points.add();
            util::warn(util::cat("oracle: dropped point ", i,
                                 " for ", app.name, ": ",
                                 err.str()));
        }
    };

    // Pass 1: one representative (the first occurrence) per unique
    // timing key. On a cold cache this is where every simulation
    // happens -- exactly one per key, the same work a serial sweep
    // does -- rather than racing duplicate-key points into redundant
    // simulations. Without a cache every point is its own
    // representative.
    std::vector<std::size_t> reps;
    std::vector<std::size_t> rest;
    if (cache_) {
        std::unordered_set<std::string> seen;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const auto key = EvaluationCache::key(cfgs[i], app,
                                                 evaluator_.params());
            (seen.insert(key).second ? reps : rest).push_back(i);
        }
    } else {
        for (std::size_t i = 0; i < cfgs.size(); ++i)
            reps.push_back(i);
    }
    mark_failures(
        forEach(reps.size(),
                [&](std::size_t n) { eval_point(reps[n]); }),
        reps);

    // Pass 2: the duplicate-key points, all cache hits now (cheap
    // power/thermal re-convergence only), exactly as they would be
    // in a serial sweep that had already passed their key once.
    mark_failures(
        forEach(rest.size(),
                [&](std::size_t n) { eval_point(rest[n]); }),
        rest);
    return out;
}

namespace {

/**
 * Evaluate every point's constraint row under @p qual, then pick the
 * best-performing feasible one. When nothing is feasible, fall back
 * to the least-violating point per @p violation (lower = closer to
 * feasible). Each point's FIT is priced once from the basis its
 * exploration built: winner values are carried from the table instead
 * of being recomputed.
 *
 * Failed evaluations never participate (no constraint row can be
 * computed from a default point); with @p require_converged,
 * non-converged points get their row computed for display but are
 * excluded from both the feasible choice and the fallback. If every
 * point is excluded the exploration is unusable and this is fatal.
 */
template <typename FeasibleFn, typename ViolationFn>
Selection
selectByConstraint(const ExploredApp &app,
                   const core::Qualification &qual,
                   bool require_converged, FeasibleFn feasible,
                   ViolationFn violation)
{
    Selection sel;
    sel.table.reserve(app.points.size());

    std::size_t best = 0;
    bool found = false;
    double best_perf = -1.0;
    std::size_t fallback = 0;
    bool has_fallback = false;
    double least_violation = 1e300;
    constexpr double inf = std::numeric_limits<double>::infinity();

    for (std::size_t i = 0; i < app.points.size(); ++i) {
        const ExploredPoint &xp = app.points[i];
        SelectionPoint pt;
        pt.converged = xp.op.converged;
        if (!xp.valid) {
            pt.valid = false;
            pt.fit = inf;
            pt.max_temp_k = inf;
            sel.table.push_back(pt);
            continue;
        }
        pt.perf_rel = xp.perf_rel;
        pt.fit = qual.price(xp.basis(), xp.op.temps_k).totalFit();
        pt.max_temp_k = xp.op.maxTemp();
        pt.valid = !require_converged || pt.converged;
        if (!pt.valid) {
            sel.table.push_back(pt);
            continue;
        }
        pt.feasible = feasible(pt);
        if (!has_fallback || violation(pt) < least_violation) {
            least_violation = violation(pt);
            fallback = i;
            has_fallback = true;
        }
        if (pt.feasible && pt.perf_rel > best_perf) {
            best_perf = pt.perf_rel;
            best = i;
            found = true;
        }
        sel.table.push_back(pt);
    }

    if (!found && !has_fallback)
        util::fatal("oracle selection: every explored point is "
                    "invalid or non-converged; nothing to select");

    sel.index = found ? best : fallback;
    sel.feasible = found;
    sel.config = app.points[sel.index].op.config;
    sel.perf_rel = sel.table[sel.index].perf_rel;
    sel.fit = sel.table[sel.index].fit;
    sel.max_temp_k = sel.table[sel.index].max_temp_k;
    return sel;
}

} // namespace

Selection
selectDrm(const ExploredApp &app, const core::Qualification &qual)
{
    if (app.points.empty())
        util::fatal("selectDrm: empty exploration");

    const double target = qual.spec().target_fit;
    // DRM is the reliability-aware policy: a non-converged thermal
    // fixed point gives untrustworthy FIT, so such points are
    // excluded outright (require_converged).
    return selectByConstraint(
        app, qual, /*require_converged=*/true,
        [&](const SelectionPoint &pt) { return pt.fit <= target; },
        [](const SelectionPoint &pt) { return pt.fit; });
}

Selection
selectDtm(const ExploredApp &app, double t_design_k,
          const core::Qualification &qual)
{
    if (app.points.empty())
        util::fatal("selectDtm: empty exploration");

    // The DTM policy is reliability-oblivious: @p qual only feeds the
    // reported per-point and winner FIT values, never the choice. It
    // tolerates non-converged points (their temperature iterate is
    // still an upper-bound-ish signal and DTM reacts, not predicts).
    return selectByConstraint(
        app, qual, /*require_converged=*/false,
        [&](const SelectionPoint &pt) {
            return pt.max_temp_k <= t_design_k;
        },
        [](const SelectionPoint &pt) { return pt.max_temp_k; });
}

} // namespace drm
} // namespace ramp
