#include "sweep.hh"

#include <atomic>
#include <chrono>
#include <set>

#include "core/engine.hh"
#include "core/qualification.hh"
#include "digest.hh"
#include "power/power.hh"
#include "sim/core.hh"
#include "thermal/model.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "workload/trace_gen.hh"

namespace ramp {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

std::vector<workload::AppProfile>
suiteApps(std::size_t max_apps)
{
    auto apps = workload::standardApps();
    if (max_apps && max_apps < apps.size())
        apps.resize(max_apps);
    return apps;
}

/** bench::Suite::qualification: 4000 FIT, base V/f, alpha_qual. */
core::Qualification
qualification(double t_qual_k, const sim::PerStructure<double> &alpha)
{
    core::QualificationSpec spec;
    spec.t_qual_k = t_qual_k;
    spec.alpha_qual = alpha;
    return core::Qualification(spec);
}

/** Select one explored app at every Figure 2 T_qual exactly as
 *  bench_fig2_archdvs does, appending its winners to @p out. */
void
selectApp(const drm::ExploredApp &explored,
          const sim::PerStructure<double> &alpha, SweepResult &out)
{
    for (const auto &pt : explored.points)
        out.failed_points += pt.valid ? 0 : 1;
    for (double tq : fig2_t_quals_k) {
        drm::Selection sel =
            drm::selectDrm(explored, qualification(tq, alpha));
        out.winner_ops.push_back(explored.points[sel.index].op);
        out.winners.push_back(std::move(sel));
    }
}

std::uint32_t
threadOrdinal()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next++;
    return mine;
}

/** A TraceGenerator replayed from 64 K-uop chunks, so generation is
 *  timed apart from the simulation pulling the stream. The uop
 *  sequence is the generator's own, so the simulation is unchanged. */
class ChunkedSource final : public sim::UopSource
{
  public:
    static constexpr std::size_t chunk = 64 * 1024;

    ChunkedSource(const workload::AppProfile &app, std::uint64_t seed,
                  const SpanLog &log, std::vector<SpanLog::Span> &spans)
        : gen_(app, seed), buf_(chunk), pos_(chunk), log_(log),
          spans_(spans)
    {
    }

    sim::Uop
    next() override
    {
        if (pos_ == buf_.size())
            refill();
        return buf_[pos_++];
    }

    double gen_s = 0.0;
    std::uint64_t generated = 0;

  private:
    void
    refill()
    {
        const auto t0 = Clock::now();
        for (auto &u : buf_)
            u = gen_.next();
        const auto t1 = Clock::now();
        gen_s += secondsBetween(t0, t1);
        generated += buf_.size();
        pos_ = 0;
        spans_.push_back({"workload.gen", "workload", threadOrdinal(),
                          log_.us(t0), log_.us(t1) - log_.us(t0), 0});
    }

    workload::TraceGenerator gen_;
    std::vector<sim::Uop> buf_;
    std::size_t pos_;
    const SpanLog &log_;
    std::vector<SpanLog::Span> &spans_;
};

/** One cold point's measurements (written by exactly one item). */
struct ColdPoint
{
    sim::MachineConfig cfg;
    const workload::AppProfile *app = nullptr;
    core::OperatingPoint op;
    double item_s = 0.0;
    double gen_s = 0.0;
    std::uint64_t gen_uops = 0;
    double sim_s = 0.0; ///< Including the refills it triggered.
    std::uint64_t cycles = 0;
    std::uint64_t retired = 0;
    double fixed_point_s = 0.0;
    double key_s = 0.0;
    double put_s = 0.0;
};

/**
 * Evaluate one point cold, as core::Evaluator::tryEvaluate plus
 * OracleExplorer's cache fill do, with each layer timed from outside.
 */
void
evaluateCold(ColdPoint &pt, const core::Evaluator &evaluator,
             drm::EvaluationCache &cache, SpanLog &log)
{
    const auto t_item = Clock::now();
    const core::EvalParams &params = evaluator.params();
    std::vector<SpanLog::Span> spans;
    const std::uint32_t tid = threadOrdinal();
    const auto span = [&](const char *name, const char *cat,
                          Clock::time_point a, Clock::time_point b) {
        spans.push_back({name, cat, tid, log.us(a), log.us(b) - log.us(a),
                         0});
    };

    ChunkedSource source(*pt.app, params.seed, log, spans);
    const auto t_sim = Clock::now();
    sim::Core core(pt.cfg, source);
    core.runUops(params.warmup_uops);
    core.takeInterval();
    pt.cycles = core.stats().cycles;
    pt.retired = core.stats().retired;
    core.resetStats();

    const auto &mem = core.memory();
    const auto l1d_acc0 = mem.l1d().accesses();
    const auto l1d_miss0 = mem.l1d().misses();
    const auto l1i_acc0 = mem.l1i().accesses();
    const auto l1i_miss0 = mem.l1i().misses();
    const auto l2_acc0 = mem.l2().accesses();
    const auto l2_miss0 = mem.l2().misses();

    core.runUops(params.measure_uops);
    const sim::ActivitySample activity = core.takeInterval();
    pt.cycles += core.stats().cycles;
    pt.retired += core.stats().retired;
    const auto ratio = [](std::uint64_t miss, std::uint64_t acc) {
        return acc ? static_cast<double>(miss) / static_cast<double>(acc)
                   : 0.0;
    };
    drm::CachedEvaluation rec;
    rec.activity = activity;
    rec.stats = core.stats();
    rec.l1d_miss_ratio = ratio(mem.l1d().misses() - l1d_miss0,
                               mem.l1d().accesses() - l1d_acc0);
    rec.l1i_miss_ratio = ratio(mem.l1i().misses() - l1i_miss0,
                               mem.l1i().accesses() - l1i_acc0);
    rec.l2_miss_ratio = ratio(mem.l2().misses() - l2_miss0,
                              mem.l2().accesses() - l2_acc0);
    const auto t_fp = Clock::now();
    span("sim.run", "sim", t_sim, t_fp);
    pt.sim_s = secondsBetween(t_sim, t_fp);
    pt.gen_s = source.gen_s;
    pt.gen_uops = source.generated;

    auto op = evaluator.tryConvergeThermal(pt.cfg, activity, rec.stats);
    const auto t_key = Clock::now();
    span("core.fixed_point", "core", t_fp, t_key);
    pt.fixed_point_s = secondsBetween(t_fp, t_key);

    // Failed evaluations are never cached (OracleExplorer::tryEvaluate).
    if (op) {
        pt.op = std::move(op.value());
        pt.op.l1d_miss_ratio = rec.l1d_miss_ratio;
        pt.op.l1i_miss_ratio = rec.l1i_miss_ratio;
        pt.op.l2_miss_ratio = rec.l2_miss_ratio;
        const std::string key =
            drm::EvaluationCache::key(pt.cfg, *pt.app, params);
        const auto t_put = Clock::now();
        cache.put(key, rec);
        const auto t_end = Clock::now();
        span("drm.cache_put", "drm", t_put, t_end);
        pt.key_s = secondsBetween(t_key, t_put);
        pt.put_s = secondsBetween(t_put, t_end);
    }
    const auto t_done = Clock::now();
    span("point", "sweep", t_item, t_done);
    pt.item_s = secondsBetween(t_item, t_done);
    log.addAll(std::move(spans));
}

/** Run @p points cold across the pool, folding their times into
 *  @p layers (pool idle = capacity minus time inside items). */
void
runColdBatch(std::vector<ColdPoint> &points, util::ThreadPool &pool,
             const core::Evaluator &evaluator, drm::EvaluationCache &cache,
             SpanLog &log, SweepLayers &layers)
{
    const auto t0 = Clock::now();
    const auto report = pool.parallelFor(points.size(), [&](std::size_t i) {
        evaluateCold(points[i], evaluator, cache, log);
    });
    const double wall = secondsBetween(t0, Clock::now());
    if (!report.ok())
        throw util::RampException(report.failures.front().second);
    double busy = 0.0;
    for (const auto &pt : points) {
        busy += pt.item_s;
        layers.gen_s += pt.gen_s;
        layers.gen_uops += pt.gen_uops;
        layers.sim_self_s += pt.sim_s - pt.gen_s;
        layers.sim_cycles += pt.cycles;
        layers.sim_retired += pt.retired;
        layers.fixed_point_s += pt.fixed_point_s;
        layers.cache_key_s += pt.key_s;
        layers.cache_put_s += pt.put_s;
        ++layers.cold_points;
    }
    layers.idle_s += wall * pool.threads() - busy;
}

const telemetry::Registry::HistogramSnapshot *
findHist(const telemetry::Registry::Snapshot &snap, const char *name)
{
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? nullptr : &it->second;
}

} // namespace

SweepResult
runSweep(const SweepOptions &opts, drm::EvaluationCache &cache)
{
    SweepResult out;
    out.apps = suiteApps(opts.max_apps);
    util::ThreadPool pool(opts.threads);
    drm::OracleExplorer explorer(opts.params, &cache, &pool);
    const std::size_t misses0 = cache.stats().misses;

    const auto t0 = Clock::now();
    out.base_ops.resize(out.apps.size());
    const auto batch = pool.parallelFor(out.apps.size(), [&](std::size_t i) {
        out.base_ops[i] = explorer.evaluateBase(out.apps[i]);
    });
    if (!batch.ok())
        throw util::RampException(batch.failures.front().second);
    const auto alpha = drm::alphaQualFromBaseline(out.base_ops);
    for (const auto &app : out.apps)
        selectApp(explorer.explore(app, drm::AdaptationSpace::ArchDvs),
                  alpha, out);
    out.seconds = secondsBetween(t0, Clock::now());
    out.cache_misses = cache.stats().misses - misses0;
    return out;
}

SweepResult
runTracedSweep(const SweepOptions &opts, drm::EvaluationCache &cache,
               SpanLog &log, SweepLayers &layers)
{
    SweepResult out;
    out.apps = suiteApps(opts.max_apps);
    util::ThreadPool pool(opts.threads);
    drm::OracleExplorer explorer(opts.params, &cache, &pool);
    const core::Evaluator &evaluator = explorer.evaluator();
    layers = SweepLayers{};
    layers.threads = pool.threads();
    const auto before = telemetry::Registry::instance().snapshot();
    const std::size_t misses0 = cache.stats().misses;

    const auto t0 = Clock::now();
    // The base points first, across apps (bench::Suite's order).
    std::vector<ColdPoint> base(out.apps.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        base[i].cfg = sim::baseMachine();
        base[i].app = &out.apps[i];
    }
    runColdBatch(base, pool, evaluator, cache, log, layers);
    for (const auto &pt : base)
        out.base_ops.push_back(pt.op);
    const auto alpha = drm::alphaQualFromBaseline(out.base_ops);

    const auto space = drm::configSpace(drm::AdaptationSpace::ArchDvs);
    for (const auto &app : out.apps) {
        // One representative per unique timing key, first occurrence
        // first: explore()'s pass 1, minus the cached base point.
        std::vector<ColdPoint> reps;
        std::set<std::string> seen;
        for (const auto &cfg : space) {
            const auto key = drm::EvaluationCache::key(cfg, app, opts.params);
            if (cache.contains(key) || !seen.insert(key).second)
                continue;
            ColdPoint pt;
            pt.cfg = cfg;
            pt.app = &app;
            reps.push_back(std::move(pt));
        }
        runColdBatch(reps, pool, evaluator, cache, log, layers);

        const auto t_explore = Clock::now();
        const drm::ExploredApp explored =
            explorer.explore(app, drm::AdaptationSpace::ArchDvs);
        const auto t_select = Clock::now();
        selectApp(explored, alpha, out);
        const auto t_end = Clock::now();
        log.add({"drm.explore", "drm", threadOrdinal(), log.us(t_explore),
                 log.us(t_select) - log.us(t_explore), 0});
        log.add({"drm.select", "drm", threadOrdinal(), log.us(t_select),
                 log.us(t_end) - log.us(t_select), 0});
        layers.explore_wall_s += secondsBetween(t_explore, t_select);
        layers.select_wall_s += secondsBetween(t_select, t_end);
        layers.selections += fig2_t_quals_k.size();
        // Selection runs on the calling thread alone.
        layers.idle_s +=
            secondsBetween(t_select, t_end) * (pool.threads() - 1);
    }
    out.seconds = secondsBetween(t0, Clock::now());
    out.cache_misses = cache.stats().misses - misses0;
    layers.wall_s = out.seconds;

    const auto after = telemetry::Registry::instance().snapshot();
    const auto *h0 = findHist(before, "evaluator.iterations");
    const auto *h1 = findHist(after, "evaluator.iterations");
    if (h1) {
        const double sum = h1->sum - (h0 ? h0->sum : 0.0);
        const double n =
            static_cast<double>(h1->total - (h0 ? h0->total : 0));
        layers.fixed_point_iters = n > 0 ? sum / n : 0.0;
    }
    return out;
}

std::string
winnersDigest(const SweepResult &sweep)
{
    Digest d;
    for (const auto &w : sweep.winners) {
        d.u64(w.index);
        d.u64(w.feasible ? 1 : 0);
        d.f64(w.perf_rel);
        d.f64(w.fit);
    }
    return d.hex();
}

std::string
pointsDigest(const SweepResult &sweep, const core::EvalParams &params,
             drm::EvaluationCache &cache)
{
    Digest d;
    const auto &archs = drm::archConfigs();
    for (std::size_t a = 0; a < sweep.apps.size(); ++a) {
        for (std::size_t c = 0; c < archs.size(); ++c) {
            d.u64(a);
            d.u64(c);
            const auto rec = cache.get(
                drm::EvaluationCache::key(archs[c], sweep.apps[a], params));
            if (!rec) {
                d.u64(~std::uint64_t{0});
                continue;
            }
            const sim::CoreStats &s = rec->stats;
            for (std::uint64_t v :
                 {s.cycles, s.fetched, s.retired, s.dispatched, s.issued,
                  s.branches, s.mispredicts, s.ras_returns, s.loads,
                  s.stores, rec->activity.cycles, rec->activity.retired})
                d.u64(v);
            for (double v : rec->activity.activity)
                d.f64(v);
            d.f64(rec->l1d_miss_ratio);
            d.f64(rec->l1i_miss_ratio);
            d.f64(rec->l2_miss_ratio);
        }
    }
    return d.hex();
}

void
checkSweep(const SweepResult &sweep, RunRecord &run)
{
    if (sweep.failed_points)
        run.fail(util::cat(sweep.failed_points,
                           " explored points failed to evaluate"));
    for (std::size_t i = 0; i < sweep.winners.size(); ++i) {
        const auto &op = sweep.winner_ops[i];
        const std::string where = util::cat(
            sweep.apps[i / fig2_t_quals_k.size()].name, " at T_qual ",
            fig2_t_quals_k[i % fig2_t_quals_k.size()], " K");
        if (!op.converged)
            run.fail("winner did not converge: " + where);
        if (op.maxTemp() >= leak_clamp_k)
            run.fail(util::cat("winner has a block at ", op.maxTemp(),
                               " K, at or past the leakage clamp: ",
                               where));
    }
}

KernelTimes
timeKernels(const SweepResult &sweep, const core::EvalParams &params,
            const drm::EvaluationCache &cache)
{
    struct Sample
    {
        sim::MachineConfig cfg;
        drm::CachedEvaluation rec;
        std::string key;
    };
    std::vector<Sample> samples;
    for (const auto &app : sweep.apps)
        for (const auto &cfg : drm::archConfigs()) {
            Sample s{cfg, {}, drm::EvaluationCache::key(cfg, app, params)};
            if (auto rec = cache.get(s.key)) {
                s.rec = *rec;
                samples.push_back(std::move(s));
            }
        }
    KernelTimes out;
    if (samples.empty())
        return out;

    const core::Evaluator evaluator(params);
    const thermal::ThermalModel thermal(params.thermal_params);
    const auto alpha = drm::alphaQualFromBaseline(sweep.base_ops);
    const core::Qualification qual = qualification(345.0, alpha);
    std::vector<core::OperatingPoint> ops;
    for (const auto &s : samples)
        ops.push_back(evaluator.convergeThermal(s.cfg, s.rec.activity,
                                                s.rec.stats));

    // Enough repetitions that each kernel's total spans milliseconds.
    constexpr int reps = 20;
    const double calls = static_cast<double>(reps * samples.size());
    double sink = 0.0;
    const auto time_us = [&](const auto &fn) {
        const auto t0 = Clock::now();
        for (int r = 0; r < reps; ++r)
            for (std::size_t i = 0; i < samples.size(); ++i)
                fn(i);
        return secondsBetween(t0, Clock::now()) * 1e6 / calls;
    };
    out.cache_get_us = time_us([&](std::size_t i) {
        sink += cache.get(samples[i].key) ? 1.0 : 0.0;
    });
    out.power_us = time_us([&](std::size_t i) {
        const power::PowerModel model(samples[i].cfg, params.power_params);
        const auto dyn = model.dynamicPower(samples[i].rec.activity);
        const auto leak = model.leakagePower(ops[i].temps_k);
        sink += dyn[0] + leak[0];
    });
    out.thermal_us = time_us([&](std::size_t i) {
        const auto &p = ops[i].power;
        sim::PerStructure<double> total{};
        for (std::size_t s = 0; s < total.size(); ++s)
            total[s] = p.dynamic_w[s] + p.leakage_w[s];
        if (auto t = thermal.trySteadyState(total))
            sink += t.value().sink_k;
    });
    out.fit_us = time_us([&](std::size_t i) {
        sink += drm::operatingPointFit(qual, ops[i]);
    });
    if (sink == -1.0) // keeps the timed work observable
        std::fprintf(stderr, "%g\n", sink);
    return out;
}

} // namespace bench
} // namespace ramp
