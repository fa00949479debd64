#include "drm/oracle.hh"

#include <algorithm>
#include <cmath>
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

/** A point the policy may choose: a successful evaluation, and under
 *  DRM (@p require_converged) a converged one -- FIT derived from an
 *  unconverged thermal iterate must not steer reliability management,
 *  not even as a fallback. */
bool
eligible(const ExploredPoint &xp, bool require_converged)
{
    return xp.valid && (!require_converged || xp.op.converged);
}

/**
 * The eligible points in the order a selection visits them: perf_rel
 * descending, ties by ascending index. The first feasible point in
 * this order is the best-performing feasible one, and among equals
 * the lowest-indexed -- exactly what a full scan keeping the first
 * strictly faster feasible point picks. perf_rel is a ratio of
 * speeds, so a negative (or NaN) value marks a corrupt point: it can
 * still be a fallback, but never ranks.
 */
std::vector<std::size_t>
fastestFirst(const ExploredApp &app, bool require_converged)
{
    std::vector<std::size_t> order;
    order.reserve(app.points.size());
    for (std::size_t i = 0; i < app.points.size(); ++i)
        if (eligible(app.points[i], require_converged) &&
            app.points[i].perf_rel >= 0.0)
            order.push_back(i);
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const double pa = app.points[a].perf_rel;
                  const double pb = app.points[b].perf_rel;
                  return pa > pb || (pa == pb && a < b);
              });
    return order;
}

/**
 * When nothing is feasible: the eligible point with the least
 * @p violation (lower = closer to feasible), the lowest index on
 * ties. Fatal when no point is eligible -- the exploration is then
 * unusable.
 */
template <typename ViolationFn>
std::size_t
leastViolating(const ExploredApp &app, bool require_converged,
               ViolationFn violation)
{
    std::size_t fallback = 0;
    bool has_fallback = false;
    double least_violation = 1e300;
    for (std::size_t i = 0; i < app.points.size(); ++i) {
        if (!eligible(app.points[i], require_converged))
            continue;
        const double v = violation(i);
        if (!has_fallback || v < least_violation) {
            least_violation = v;
            fallback = i;
            has_fallback = true;
        }
    }
    if (!has_fallback)
        util::fatal("oracle selection: every explored point is "
                    "invalid or non-converged; nothing to select");
    return fallback;
}

/** Application FIT of an explored point, priced from its basis. */
double
priceFit(const core::Qualification &qual, const ExploredPoint &xp)
{
    return qual.price(xp.basis(), xp.op.temps_k).totalFit();
}

/** The selection of point @p index, priced at @p fit. */
Selection
chosen(const ExploredApp &app, std::size_t index, double fit,
       bool feasible)
{
    const ExploredPoint &xp = app.points[index];
    Selection sel;
    sel.index = index;
    sel.config = xp.op.config;
    sel.perf_rel = xp.perf_rel;
    sel.fit = fit;
    sel.max_temp_k = xp.op.maxTemp();
    sel.feasible = feasible;
    sel.converged = xp.op.converged;
    return sel;
}

} // namespace

Selection
selectDrm(const ExploredApp &app, const core::Qualification &qual)
{
    if (app.points.empty())
        util::fatal("selectDrm: empty exploration");

    // Only the points at least as fast as the winner decide it, so
    // only they are priced.
    const double target = qual.spec().target_fit;
    std::vector<double> fits(app.points.size(),
                             std::numeric_limits<double>::quiet_NaN());
    for (std::size_t i : fastestFirst(app, /*require_converged=*/true)) {
        fits[i] = priceFit(qual, app.points[i]);
        if (fits[i] <= target)
            return chosen(app, i, fits[i], true);
    }

    // Nothing feasible: the least FIT wins. Every ranked point is
    // priced by now; the rest are priced here (a NaN price is simply
    // recomputed, to the same NaN).
    const std::size_t fallback = leastViolating(
        app, /*require_converged=*/true, [&](std::size_t i) {
            if (std::isnan(fits[i]))
                fits[i] = priceFit(qual, app.points[i]);
            return fits[i];
        });
    return chosen(app, fallback, fits[fallback], false);
}

Selection
selectDtm(const ExploredApp &app, double t_design_k,
          const core::Qualification &qual)
{
    if (app.points.empty())
        util::fatal("selectDtm: empty exploration");

    // The DTM policy is reliability-oblivious: @p qual only prices the
    // winner, never steers the choice. It tolerates non-converged
    // points (their temperature iterate is still an upper-bound-ish
    // signal and DTM reacts, not predicts).
    const auto max_temp = [&](std::size_t i) {
        return app.points[i].op.maxTemp();
    };
    for (std::size_t i : fastestFirst(app, /*require_converged=*/false))
        if (max_temp(i) <= t_design_k)
            return chosen(app, i, priceFit(qual, app.points[i]), true);
    const std::size_t fallback =
        leastViolating(app, /*require_converged=*/false, max_temp);
    return chosen(app, fallback, priceFit(qual, app.points[fallback]),
                  false);
}

} // namespace drm
} // namespace ramp
