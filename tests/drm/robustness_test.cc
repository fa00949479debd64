/**
 * @file
 * Robustness tests for the control path: ladder clamping at both
 * ends, the transient loop's fail-safe behaviour under injected
 * sensor faults, forced non-convergence through the evaluator and
 * oracle (serial vs parallel determinism), cache-record corruption
 * and quarantine, and the thread pool's drop-and-report policy.
 */

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "drm/controller.hh"
#include "drm/eval_cache.hh"
#include "drm/oracle.hh"
#include "drm/transient.hh"
#include "fault/fault.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp::drm {
namespace {

using util::ErrorCode;
using util::RampError;
using util::RampException;

/** Clears the process-global fault plan around each test. */
class RobustnessTest : public testing::Test
{
  protected:
    void SetUp() override { fault::clearFaultPlan(); }
    void TearDown() override { fault::clearFaultPlan(); }
};

core::Qualification
makeQual(double t_qual = 380.0)
{
    core::QualificationSpec s;
    s.t_qual_k = t_qual;
    s.alpha_qual.fill(0.5);
    return core::Qualification(s);
}

TransientParams
fastParams(std::uint32_t intervals = 20)
{
    TransientParams p;
    p.interval_uops = 20'000;
    p.warmup_uops = 60'000;
    p.num_intervals = intervals;
    p.represented_time_s = 0.5;
    return p;
}

core::EvalParams
fastEvalParams()
{
    core::EvalParams p;
    p.warmup_uops = 30'000;
    p.measure_uops = 40'000;
    return p;
}

TEST(ControllerClamp, DrmSaturatesAtBothLadderEnds)
{
    DrmController::Params params;
    params.target_fit = 4000.0;
    // A persistently blown budget walks the ladder to the bottom rung
    // and stays there; banked slack walks it to the top and stays.
    DrmController down(params, 11, 6);
    for (int i = 0; i < 60; ++i) {
        const std::size_t level = down.observe(1e6);
        EXPECT_LT(level, 11u);
    }
    EXPECT_EQ(down.level(), 0u);
    EXPECT_EQ(down.observe(1e6), 0u); // clamped, no wraparound

    DrmController up(params, 11, 6);
    for (int i = 0; i < 60; ++i)
        up.observe(100.0);
    EXPECT_EQ(up.level(), 10u);
    EXPECT_EQ(up.observe(100.0), 10u);
}

TEST(ControllerClamp, DtmSaturatesAtBothLadderEnds)
{
    DtmController::Params params;
    params.t_design_k = 370.0;
    DtmController down(params, 11, 6);
    for (int i = 0; i < 60; ++i)
        down.observe(1000.0);
    EXPECT_EQ(down.level(), 0u);
    EXPECT_EQ(down.observe(1000.0), 0u);

    DtmController up(params, 11, 6);
    for (int i = 0; i < 60; ++i)
        up.observe(200.0);
    EXPECT_EQ(up.level(), 10u);
    EXPECT_EQ(up.observe(200.0), 10u);
}

TEST_F(RobustnessTest, TransientCleanRunChannelsAreTransparent)
{
    const TransientRunner runner(fastParams());
    const auto result = runner.run(workload::findApp("twolf"),
                                   makeQual(), Policy::Dtm);
    for (const auto &s : result.trace) {
        EXPECT_EQ(s.sensed_temp_k, s.max_temp_k);
        EXPECT_EQ(s.sensed_fit, s.avg_fit);
        EXPECT_FALSE(s.failsafe);
    }
    const auto &d = result.degradation;
    EXPECT_EQ(d.injected_faults, 0u);
    EXPECT_EQ(d.invalid_readings, 0u);
    EXPECT_EQ(d.fallbacks, 0u);
    EXPECT_EQ(d.despiked, 0u);
    EXPECT_EQ(d.failsafe_engages, 0u);
    EXPECT_EQ(d.failsafe_intervals, 0u);
    EXPECT_EQ(d.power_holds, 0u);
}

TEST_F(RobustnessTest, TransientFailsafeForcesSafestLevel)
{
    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::SensorDropout).rate = 1.0;
    fault::installFaultPlan(plan);

    const auto params = fastParams();
    const std::uint32_t k = params.temp_channel.failsafe_after;
    const TransientRunner runner(params);
    const auto result = runner.run(workload::findApp("twolf"),
                                   makeQual(), Policy::Dtm);

    // Every reading on both streams dropped: all invalid, the latch
    // engages after K consecutive failures and never releases.
    const auto &d = result.degradation;
    EXPECT_EQ(d.injected_faults, 2u * params.num_intervals);
    EXPECT_EQ(d.invalid_readings, 2u * params.num_intervals);
    EXPECT_EQ(d.failsafe_engages, 2u); // temp and fit channel
    EXPECT_EQ(d.failsafe_intervals, params.num_intervals - k + 1);

    for (std::uint32_t i = 0; i < params.num_intervals; ++i) {
        EXPECT_EQ(result.trace[i].failsafe, i + 1 >= k)
            << "interval " << i;
        // The forced move takes effect the following interval.
        if (i >= k) {
            EXPECT_EQ(result.trace[i].level, 0u) << "interval " << i;
        }
    }
}

TEST_F(RobustnessTest, TransientPowerNanIsHeldNotPropagated)
{
    fault::FaultPlan plan;
    plan.seed = 3;
    plan.spec(fault::FaultKind::PowerNan).rate = 0.5;
    fault::installFaultPlan(plan);

    const TransientRunner runner(fastParams(30));
    const auto result = runner.run(workload::findApp("twolf"),
                                   makeQual(), Policy::None);
    const auto &d = result.degradation;
    EXPECT_GT(d.injected_faults, 0u);
    // Every injected NaN is caught by the hold (one structure per
    // injection), and the thermal state never sees it.
    EXPECT_EQ(d.power_holds, d.injected_faults);
    for (const auto &s : result.trace) {
        EXPECT_TRUE(std::isfinite(s.max_temp_k));
        EXPECT_TRUE(std::isfinite(s.total_power_w));
        EXPECT_TRUE(std::isfinite(s.avg_fit));
    }
}

TEST_F(RobustnessTest, TransientFaultedRunIsDeterministic)
{
    fault::FaultPlan plan;
    plan.seed = 9;
    plan.spec(fault::FaultKind::SensorNoise).rate = 0.1;
    plan.spec(fault::FaultKind::SensorDropout).rate = 0.05;
    plan.spec(fault::FaultKind::PowerNan).rate = 0.05;
    fault::installFaultPlan(plan);

    const TransientRunner runner(fastParams(30));
    const auto &app = workload::findApp("gzip");
    const auto a = runner.run(app, makeQual(), Policy::Dtm);
    const auto b = runner.run(app, makeQual(), Policy::Dtm);

    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
        EXPECT_EQ(a.trace[i].level, b.trace[i].level);
        EXPECT_EQ(a.trace[i].max_temp_k, b.trace[i].max_temp_k);
        EXPECT_EQ(a.trace[i].sensed_temp_k, b.trace[i].sensed_temp_k);
        EXPECT_EQ(a.trace[i].sensed_fit, b.trace[i].sensed_fit);
        EXPECT_EQ(a.trace[i].failsafe, b.trace[i].failsafe);
    }
    EXPECT_EQ(a.degradation.injected_faults,
              b.degradation.injected_faults);
    EXPECT_EQ(a.degradation.invalid_readings,
              b.degradation.invalid_readings);
    EXPECT_EQ(a.degradation.power_holds, b.degradation.power_holds);
}

TEST_F(RobustnessTest, EvaluatorReportsForcedNonConvergence)
{
    const core::Evaluator evaluator(fastEvalParams());
    const auto &app = workload::findApp("twolf");
    const auto cfg = sim::baseMachine();

    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::NonConvergence).rate = 1.0;
    fault::installFaultPlan(plan);
    const auto forced = evaluator.tryEvaluate(cfg, app);
    ASSERT_TRUE(forced.ok());
    EXPECT_FALSE(forced.value().converged);

    fault::clearFaultPlan();
    const auto clean = evaluator.tryEvaluate(cfg, app);
    ASSERT_TRUE(clean.ok());
    EXPECT_TRUE(clean.value().converged);
}

TEST_F(RobustnessTest, OracleSerialAndParallelAgreeUnderFaults)
{
    // Non-convergence decisions are pure functions of the point's
    // identity, so the marked set must be identical at any thread
    // count -- and a DRM selection never picks an unconverged point.
    fault::FaultPlan plan;
    plan.seed = 11;
    plan.spec(fault::FaultKind::NonConvergence).rate = 0.4;
    fault::installFaultPlan(plan);

    const auto &app = workload::findApp("twolf");
    const OracleExplorer serial(fastEvalParams());
    const auto serial_app = serial.explore(app, AdaptationSpace::Dvs);

    util::ThreadPool pool(4);
    const OracleExplorer parallel(fastEvalParams(), nullptr, &pool);
    const auto parallel_app =
        parallel.explore(app, AdaptationSpace::Dvs);

    ASSERT_EQ(serial_app.points.size(), parallel_app.points.size());
    std::size_t unconverged = 0;
    for (std::size_t i = 0; i < serial_app.points.size(); ++i) {
        const auto &s = serial_app.points[i];
        const auto &p = parallel_app.points[i];
        EXPECT_EQ(s.valid, p.valid) << "point " << i;
        EXPECT_EQ(s.op.converged, p.op.converged) << "point " << i;
        EXPECT_EQ(s.perf_rel, p.perf_rel) << "point " << i;
        unconverged += !s.op.converged;
    }
    EXPECT_GT(unconverged, 0u);
    EXPECT_LT(unconverged, serial_app.points.size());

    const auto sel = selectDrm(serial_app, makeQual(400.0));
    EXPECT_TRUE(sel.converged);
    EXPECT_TRUE(serial_app.points[sel.index].op.converged);
}

/** Temp cache path; removes the log and its sidecars. */
std::string
cachePath(const char *tag)
{
    return testing::TempDir() + "ramp_robustness_" + tag + ".txt";
}

void
removeCacheFiles(const std::string &path)
{
    std::remove(path.c_str());
    std::remove((path + ".lock").c_str());
    std::remove((path + ".quarantine").c_str());
}

CachedEvaluation
record(std::uint64_t retired)
{
    CachedEvaluation v;
    v.activity.cycles = 1000;
    v.activity.retired = retired;
    v.activity.activity.fill(0.25);
    v.stats.cycles = 1000;
    v.stats.retired = retired;
    return v;
}

TEST_F(RobustnessTest, CacheQuarantinesCorruptLines)
{
    const auto path = cachePath("quarantine");
    removeCacheFiles(path);
    {
        EvaluationCache cache(path);
        cache.put("good_a", record(800));
        cache.put("good_b", record(400));
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "!!corrupt!! interleaved garbage\n";
        out << "999 stale_version 1 2 3\n";
    }
    EvaluationCache cache(path);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().quarantined, 2u);
    EXPECT_TRUE(cache.get("good_a").has_value());

    // The dropped lines are preserved verbatim in the sidecar, and
    // the compacted log reloads clean.
    std::ifstream side(path + ".quarantine");
    ASSERT_TRUE(side.good());
    std::string text((std::istreambuf_iterator<char>(side)),
                     std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("!!corrupt!! interleaved garbage"),
              std::string::npos);
    EXPECT_NE(text.find("999 stale_version"), std::string::npos);

    EvaluationCache again(path);
    EXPECT_EQ(again.stats().quarantined, 0u);
    EXPECT_EQ(again.size(), 2u);
    removeCacheFiles(path);
}

TEST_F(RobustnessTest, CacheCorruptionInjectionIsSurvivable)
{
    const auto path = cachePath("inject");
    removeCacheFiles(path);
    const auto counterBefore = telemetry::Registry::instance()
                                   .snapshot()
                                   .counter("fault.cache_corrupt");
    fault::FaultPlan plan;
    plan.seed = 3;
    plan.spec(fault::FaultKind::CacheCorrupt).rate = 1.0;
    fault::installFaultPlan(plan);
    {
        EvaluationCache cache(path);
        for (int i = 0; i < 6; ++i)
            cache.put(util::cat("rec_", i),
                      record(100u * (i + 1)));
        // The in-memory map is unaffected; only the persisted line
        // is garbled.
        EXPECT_EQ(cache.size(), 6u);
    }
    const auto counterAfter = telemetry::Registry::instance()
                                  .snapshot()
                                  .counter("fault.cache_corrupt");
    EXPECT_EQ(counterAfter - counterBefore, 6u);

    // Reload clean: corrupted records never round-trip intact, and
    // loading them neither crashes nor fabricates data.
    fault::clearFaultPlan();
    EvaluationCache reloaded(path);
    std::size_t intact = 0;
    for (int i = 0; i < 6; ++i) {
        const auto hit = reloaded.get(util::cat("rec_", i));
        intact += hit.has_value() &&
                  hit->activity.retired == 100u * (i + 1);
    }
    EXPECT_LT(intact, 6u);
    removeCacheFiles(path);
}

TEST(ThreadPoolRobustness, DropsAndReportsRampExceptionItems)
{
    util::ThreadPool pool(3);
    std::vector<int> done(10, 0);
    const auto report =
        pool.parallelFor(10, [&](std::size_t i) {
            if (i % 3 == 0)
                throw RampException(
                    RampError{ErrorCode::SingularSystem, "boom"});
            done[i] = 1;
        });
    EXPECT_EQ(report.items, 10u);
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.failures.size(), 4u);
    // Sorted by index, deterministic at any thread count.
    const std::size_t expect_failed[] = {0, 3, 6, 9};
    for (std::size_t i = 0; i < report.failures.size(); ++i) {
        EXPECT_EQ(report.failures[i].first, expect_failed[i]);
        EXPECT_EQ(report.failures[i].second.code,
                  ErrorCode::SingularSystem);
    }
    // The batch drained: every non-failing item completed.
    for (std::size_t i = 0; i < done.size(); ++i)
        EXPECT_EQ(done[i], i % 3 == 0 ? 0 : 1);
}

TEST(ThreadPoolRobustness, RethrowsNonRampExceptions)
{
    util::ThreadPool pool(3);
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](std::size_t i) {
                                      if (i == 5)
                                          throw std::runtime_error(
                                              "bug");
                                  }),
                 std::runtime_error);
}

} // namespace
} // namespace ramp::drm
