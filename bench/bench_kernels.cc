/**
 * @file
 * Google-benchmark micro-kernels for the performance-critical pieces:
 * the failure-mechanism models, qualification FIT evaluation, DRM/DTM
 * selection, the thermal solvers and the leakage/thermal fixed point,
 * a warm exploration, the cache model, the branch predictor, trace
 * generation, and whole-core cycle throughput. These bound the cost
 * of the reproduction sweeps.
 */

#include <benchmark/benchmark.h>

#include "common.hh"
#include "core/engine.hh"
#include "core/evaluator.hh"
#include "core/mechanisms.hh"
#include "core/qualification.hh"
#include "drm/eval_cache.hh"
#include "drm/oracle.hh"
#include "sim/bpred.hh"
#include "sim/cache.hh"
#include "sim/core.hh"
#include "thermal/model.hh"
#include "util/random.hh"
#include "util/thread_pool.hh"
#include "workload/trace_gen.hh"

namespace {

using namespace ramp;

void
BM_MechanismLogRate(benchmark::State &state)
{
    const auto mech = static_cast<core::Mechanism>(state.range(0));
    core::OperatingConditions c;
    c.temp_k = 360.0;
    double t = 340.0;
    for (auto _ : state) {
        c.temp_k = t;
        t = t < 400.0 ? t + 0.01 : 340.0;
        benchmark::DoNotOptimize(core::logRelativeRate(mech, c));
    }
}
BENCHMARK(BM_MechanismLogRate)->DenseRange(0, 3);

void
BM_QualificationFit(benchmark::State &state)
{
    core::QualificationSpec spec;
    spec.alpha_qual.fill(0.5);
    const core::Qualification qual(spec);
    core::OperatingConditions c;
    c.temp_k = 365.0;
    for (auto _ : state) {
        double total = 0.0;
        for (auto s : sim::allStructures())
            for (auto m : core::allMechanisms())
                total += qual.fit(s, m, c);
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_QualificationFit);

void
BM_SteadyFitReport(benchmark::State &state)
{
    core::QualificationSpec spec;
    spec.alpha_qual.fill(0.5);
    const core::Qualification qual(spec);
    sim::PerStructure<double> on;
    on.fill(1.0);
    sim::PerStructure<double> temps;
    temps.fill(362.0);
    sim::PerStructure<double> act;
    act.fill(0.3);
    for (auto _ : state) {
        const auto rep =
            core::steadyFit(qual, on, temps, act, 1.0, 4.0);
        benchmark::DoNotOptimize(rep.totalFit());
    }
}
BENCHMARK(BM_SteadyFitReport);

void
BM_FitBasisPrice(benchmark::State &state)
{
    // BM_SteadyFitReport's point with its basis built once: what a
    // selection pays per explored point.
    core::QualificationSpec spec;
    spec.alpha_qual.fill(0.5);
    const core::Qualification qual(spec);
    sim::PerStructure<double> on;
    on.fill(1.0);
    sim::PerStructure<double> temps;
    temps.fill(362.0);
    sim::PerStructure<double> act;
    act.fill(0.3);
    const core::FitBasis basis(on, temps, act, 1.0, 4.0);
    for (auto _ : state) {
        const auto rep = qual.price(basis, temps);
        benchmark::DoNotOptimize(rep.totalFit());
    }
}
BENCHMARK(BM_FitBasisPrice);

/** The 198-point ArchDVS space with synthetic points (temperature
 *  rising with f, V and the window), since only selection is timed. */
drm::ExploredApp
syntheticArchDvs()
{
    std::vector<drm::ExploredPoint> points;
    for (const auto &cfg : drm::configSpace(drm::AdaptationSpace::ArchDvs)) {
        core::OperatingPoint op;
        op.config = cfg;
        op.temps_k.fill(300.0 + 14.0 * cfg.frequency_ghz +
                        10.0 * cfg.voltage_v + 0.05 * cfg.window_size);
        op.activity.activity.fill(0.4);
        op.activity.cycles = 1000;
        op.activity.retired = 1000;
        points.emplace_back(std::move(op), cfg.frequency_ghz / 4.0);
    }
    return drm::ExploredApp("synthetic", {}, std::move(points));
}

core::Qualification
kernelQualification()
{
    core::QualificationSpec spec;
    spec.t_qual_k = 370.0;
    spec.alpha_qual.fill(0.5);
    return core::Qualification(spec);
}

void
BM_SelectDrmArchDvs(benchmark::State &state)
{
    // One DRM selection over the 198-point ArchDVS space.
    const drm::ExploredApp app = syntheticArchDvs();
    const core::Qualification qual = kernelQualification();
    for (auto _ : state) {
        const auto sel = drm::selectDrm(app, qual);
        benchmark::DoNotOptimize(sel.index);
    }
}
BENCHMARK(BM_SelectDrmArchDvs);

void
BM_SelectDtmArchDvs(benchmark::State &state)
{
    // One DTM selection over the same space, capped at 370 K.
    const drm::ExploredApp app = syntheticArchDvs();
    const core::Qualification qual = kernelQualification();
    for (auto _ : state) {
        const auto sel = drm::selectDtm(app, 370.0, qual);
        benchmark::DoNotOptimize(sel.index);
    }
}
BENCHMARK(BM_SelectDtmArchDvs);

/** The fixed twolf activity sample of BM_ConvergeThermal. */
drm::CachedEvaluation
twolfSample()
{
    drm::CachedEvaluation m;
    m.activity.cycles = 94361;
    m.activity.retired = 40001;
    m.activity.activity =
        {0x1.796318e2dee4cp-5, 0x0p+0, 0x1.0bbc47bfd9be5p-5, 0x0p+0,
         0x1.0886e3be87bddp-5, 0x1.217c833069c8ep-5, 0x1.2e60e43cef039p-4,
         0x1.2e60e43cef039p-4, 0x1.c6b24268905a4p-4, 0x1.b23ac4c89ead5p-5};
    return m;
}

void
BM_ConvergeThermal(benchmark::State &state)
{
    // A batch of single-core leakage/thermal fixed points (11
    // iterations each) on the fixed twolf sample, at the batch sizes
    // of a lone point (1) and of an exploration item (8). Items are
    // points, so the two rates compare per point.
    const auto lanes = static_cast<std::size_t>(state.range(0));
    const drm::CachedEvaluation sample = twolfSample();
    const std::vector<sim::MachineConfig> cfgs(lanes, sim::baseMachine());
    const std::vector<const drm::CachedEvaluation *> measured(lanes,
                                                              &sample);
    const core::Evaluator evaluator;
    for (auto _ : state) {
        const auto ops = evaluator.tryConvergeThermal(cfgs, measured);
        benchmark::DoNotOptimize(ops.back().value().sink_temp_k);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_ConvergeThermal)->Arg(1)->Arg(8);

void
BM_ExploreWarmArchDvs(benchmark::State &state)
{
    // One warm ArchDVS exploration (198 points from 18 cached records)
    // on a 4-thread pool: what a warm restart pays per (app, space).
    // The records are synthetic (the twolf sample everywhere); only
    // the exploration's own work is timed.
    const auto &app = workload::findApp("twolf");
    const core::EvalParams params;
    drm::EvaluationCache cache;
    cache.put(drm::EvaluationCache::key(sim::baseMachine(), app, params),
              twolfSample());
    for (const auto &cfg : drm::configSpace(drm::AdaptationSpace::ArchDvs))
        cache.put(drm::EvaluationCache::key(cfg, app, params),
                  twolfSample());
    util::ThreadPool pool(4);
    const drm::OracleExplorer explorer(params, &cache, &pool);
    for (auto _ : state) {
        const auto explored =
            explorer.explore(app, drm::AdaptationSpace::ArchDvs);
        benchmark::DoNotOptimize(explored.fastestFirst().front());
    }
}
BENCHMARK(BM_ExploreWarmArchDvs)->UseRealTime();

void
BM_ThermalSteadyState(benchmark::State &state)
{
    const thermal::ThermalModel model;
    sim::PerStructure<double> power;
    power.fill(2.5);
    for (auto _ : state) {
        const auto t = model.steadyState(power);
        benchmark::DoNotOptimize(t.sink_k);
    }
}
BENCHMARK(BM_ThermalSteadyState);

void
BM_ThermalTransientStep(benchmark::State &state)
{
    thermal::ThermalModel model;
    sim::PerStructure<double> power;
    power.fill(2.5);
    model.initialiseSteady(power);
    for (auto _ : state)
        model.step(power, 1e-3);
}
BENCHMARK(BM_ThermalTransientStep);

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache(64, 2, 64);
    util::Rng rng(1);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        addr = (addr + 8) % (128 * 1024);
        benchmark::DoNotOptimize(cache.access(addr, false));
    }
}
BENCHMARK(BM_CacheAccess);

void
BM_BranchPredict(benchmark::State &state)
{
    sim::BimodalAgree bp(8192);
    std::uint64_t pc = 0x1000;
    for (auto _ : state) {
        pc = 0x1000 + (pc * 2654435761u) % 4096;
        const bool taken = (pc & 64) != 0;
        benchmark::DoNotOptimize(bp.predict(pc));
        bp.update(pc, taken);
    }
}
BENCHMARK(BM_BranchPredict);

void
BM_TraceGeneration(benchmark::State &state)
{
    workload::TraceGenerator gen(workload::findApp("bzip2"), 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(gen.next());
}
BENCHMARK(BM_TraceGeneration);

void
BM_CoreCycles(benchmark::State &state)
{
    const auto &app = workload::findApp(
        state.range(0) == 0 ? "MPGdec" : "twolf");
    workload::TraceGenerator gen(app, 1);
    sim::Core core(sim::baseMachine(), gen);
    core.run(50000); // warm
    for (auto _ : state)
        core.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_CoreCycles)->DenseRange(0, 1);

} // namespace

int
main(int argc, char **argv)
{
    // The unified bench flags are stripped first; everything left
    // over belongs to google-benchmark, which rejects what it does
    // not recognize either.
    ramp::bench::Options::parseStripping(argc, argv);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
