#include "drm/oracle.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <unordered_map>

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

ExploredApp::ExploredApp(std::string name, core::OperatingPoint base_op,
                         std::vector<ExploredPoint> explored)
    : app_name(std::move(name)), base(std::move(base_op)),
      points(std::move(explored))
{
    fastest_first_.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i)
        if (points[i].valid && points[i].perf_rel >= 0.0)
            fastest_first_.push_back(i);
    std::sort(fastest_first_.begin(), fastest_first_.end(),
              [&](std::size_t a, std::size_t b) {
                  const double pa = points[a].perf_rel;
                  const double pb = points[b].perf_rel;
                  return pa > pb || (pa == pb && a < b);
              });
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
    std::optional<CachedEvaluation> rec = cache_->get(key);
    const bool miss = !rec;
    if (miss)
        rec = evaluator_.simulate(cfg, app);
    const CachedEvaluation *one = &*rec;
    auto result = std::move(
        evaluator_.tryConvergeThermal({&cfg, 1}, {&one, 1}).front());
    if (miss && result)
        cache_->put(key, *rec); // failed evaluations are never cached
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
    const ExploreTask task{&app, space};
    return std::move(explore({&task, 1}).front());
}

bool
OracleExplorer::cached(const workload::AppProfile &app,
                       AdaptationSpace space) const
{
    if (!cache_)
        return false;
    const core::EvalParams &params = evaluator_.params();
    if (!cache_->contains(EvaluationCache::key(sim::baseMachine(), app,
                                               params)))
        return false;
    for (const auto &cfg : configSpace(space))
        if (!cache_->contains(EvaluationCache::key(cfg, app, params)))
            return false;
    return true;
}

std::vector<ExploredApp>
OracleExplorer::explore(std::span<const ExploreTask> tasks) const
{
    if (tasks.empty())
        return {};
    auto &metrics = oracleMetrics();
    telemetry::ScopedTimer timer(metrics.explore_s, "explore",
                                 "oracle");

    // The base points first, one per application.
    std::vector<const workload::AppProfile *> apps;
    for (const ExploreTask &task : tasks)
        if (std::find(apps.begin(), apps.end(), task.app) == apps.end())
            apps.push_back(task.app);
    std::vector<core::OperatingPoint> bases(apps.size());
    const auto base_report = forEach(apps.size(), [&](std::size_t a) {
        bases[a] = evaluateBase(*apps[a]);
    });
    if (!base_report.ok())
        util::panic("evaluateBase never throws RampException");

    // Each space's configurations, once per space however many apps
    // explore it.
    std::map<AdaptationSpace, std::vector<sim::MachineConfig>> space_cfgs;
    for (const ExploreTask &task : tasks)
        if (!space_cfgs.count(task.space))
            space_cfgs.emplace(task.space, configSpace(task.space));

    // Each task's points, allocated here and filled by index.
    struct Space
    {
        std::span<const sim::MachineConfig> cfgs;
        std::vector<ExploredPoint> points;
        /** The record each point converges from. */
        std::vector<const CachedEvaluation *> record;
        std::size_t base = 0; ///< Index into bases.
    };
    std::vector<Space> spaces(tasks.size());
    std::size_t total_points = 0;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        Space &sp = spaces[t];
        sp.cfgs = space_cfgs.at(tasks[t].space);
        sp.points.resize(sp.cfgs.size());
        sp.record.resize(sp.cfgs.size());
        sp.base = static_cast<std::size_t>(
            std::find(apps.begin(), apps.end(), tasks[t].app) - apps.begin());
        total_points += sp.cfgs.size();
        metrics.explores.add();
        metrics.points.add(sp.cfgs.size());
    }
    timer.arg("points", static_cast<double>(total_points));

    // Step 1: one record per unique timing key across every task
    // (without a cache, one per point), fetched here; the misses are
    // simulated, and put, in one batch. Keys are unique, so no two
    // items ever simulate the same record.
    struct Miss
    {
        std::size_t record, task, point;
        std::string key;
    };
    std::vector<CachedEvaluation> records;
    std::vector<std::size_t> record_of;
    std::vector<Miss> misses;
    std::unordered_map<std::string, std::size_t> by_key;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        for (std::size_t i = 0; i < spaces[t].cfgs.size(); ++i) {
            std::string key;
            if (cache_) {
                key = EvaluationCache::key(spaces[t].cfgs[i], *tasks[t].app,
                                           evaluator_.params());
                const auto [it, fresh] = by_key.emplace(key, records.size());
                if (!fresh) {
                    record_of.push_back(it->second);
                    continue;
                }
            }
            record_of.push_back(records.size());
            auto hit = cache_ ? cache_->get(key) : std::nullopt;
            if (!hit)
                misses.push_back({records.size(), t, i, std::move(key)});
            records.push_back(hit ? *hit : CachedEvaluation{});
        }
    }
    const auto sim_report = forEach(misses.size(), [&](std::size_t n) {
        const Miss &miss = misses[n];
        records[miss.record] = evaluator_.simulate(
            spaces[miss.task].cfgs[miss.point], *tasks[miss.task].app);
        if (cache_)
            cache_->put(miss.key, records[miss.record]);
    });
    if (!sim_report.ok())
        util::panic("simulate never throws RampException");
    for (std::size_t t = 0, n = 0; t < tasks.size(); ++t)
        for (auto &record : spaces[t].record)
            record = &records[record_of[n++]];

    // Step 2: every point converges from its record, a few points per
    // item through the batched fixed point, all in one batch. Each
    // lane is bit for bit what it gets alone, so the grouping never
    // shows in the output.
    constexpr std::size_t lanes = 8;
    struct Chunk
    {
        std::size_t task, first;
        /** The chunk's failed points, by index (rare). */
        std::vector<std::pair<std::size_t, util::RampError>> failures;
    };
    std::vector<Chunk> chunks;
    for (std::size_t t = 0; t < spaces.size(); ++t)
        for (std::size_t i = 0; i < spaces[t].cfgs.size(); i += lanes)
            chunks.push_back({t, i, {}});
    const auto fp_report = forEach(chunks.size(), [&](std::size_t c) {
        Chunk &chunk = chunks[c];
        const std::size_t first = chunk.first;
        Space &sp = spaces[chunk.task];
        const std::size_t count = std::min(lanes, sp.cfgs.size() - first);
        auto ops = evaluator_.tryConvergeThermal(
            sp.cfgs.subspan(first, count),
            std::span(sp.record).subspan(first, count));
        for (std::size_t j = 0; j < count; ++j) {
            if (!ops[j]) {
                chunk.failures.emplace_back(first + j, ops[j].error());
                continue;
            }
            const double perf_rel = ops[j].value().uopsPerSecond() /
                                    bases[sp.base].uopsPerSecond();
            sp.points[first + j] =
                ExploredPoint(std::move(ops[j].value()), perf_rel);
        }
    });
    if (!fp_report.ok())
        util::panic("tryConvergeThermal never throws RampException");

    // A failed point stays invalid (excluded from every selection);
    // each failure is a pure function of the point, so the dropped
    // set is identical at every thread count.
    for (const Chunk &chunk : chunks) {
        for (const auto &[i, err] : chunk.failures) {
            metrics.failed_points.add();
            util::warn(util::cat("oracle: dropped point ", i, " for ",
                                 tasks[chunk.task].app->name, ": ",
                                 err.str()));
        }
    }

    std::vector<ExploredApp> out;
    out.reserve(tasks.size());
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        out.emplace_back(tasks[t].app->name, bases[spaces[t].base],
                         std::move(spaces[t].points));
    }
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

    // Only the points at least as fast as the winner decide it, and a
    // point's FIT is summed only until it provably exceeds the target:
    // the winner alone is priced in full.
    const double target = qual.spec().target_fit;
    for (std::size_t i : app.fastestFirst()) {
        const ExploredPoint &xp = app.points[i];
        if (!eligible(xp, /*require_converged=*/true))
            continue;
        const double fit = qual.fitWithin(xp.basis(), xp.op.temps_k, target);
        if (fit <= target)
            return chosen(app, i, fit, true);
    }

    // Nothing feasible: the least FIT wins, every eligible point
    // priced in full.
    std::vector<double> fits(app.points.size());
    const std::size_t fallback = leastViolating(
        app, /*require_converged=*/true, [&](std::size_t i) {
            return fits[i] = priceFit(qual, app.points[i]);
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
    for (std::size_t i : app.fastestFirst())
        if (max_temp(i) <= t_design_k)
            return chosen(app, i, priceFit(qual, app.points[i]), true);
    const std::size_t fallback =
        leastViolating(app, /*require_converged=*/false, max_temp);
    return chosen(app, fallback, priceFit(qual, app.points[fallback]),
                  false);
}

} // namespace drm
} // namespace ramp
