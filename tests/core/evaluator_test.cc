/**
 * @file
 * Tests for the operating-point evaluator: the paper's two-pass
 * power/thermal methodology (Section 6.3), leakage feedback, and
 * determinism. Uses short simulations to stay fast.
 */

#include <gtest/gtest.h>

#include "core/evaluator.hh"
#include "util/telemetry.hh"
#include "workload/profile.hh"

namespace ramp::core {
namespace {

EvalParams
fastParams()
{
    EvalParams p;
    p.warmup_uops = 60'000;
    p.measure_uops = 120'000;
    return p;
}

TEST(Evaluator, DeterministicAcrossCalls)
{
    const Evaluator e(fastParams());
    const auto &app = workload::findApp("gzip");
    const auto a = e.evaluate(sim::baseMachine(), app);
    const auto b = e.evaluate(sim::baseMachine(), app);
    EXPECT_EQ(a.stats.retired, b.stats.retired);
    EXPECT_EQ(a.stats.cycles, b.stats.cycles);
    for (std::size_t i = 0; i < sim::num_structures; ++i) {
        EXPECT_DOUBLE_EQ(a.activity.activity[i],
                         b.activity.activity[i]);
        EXPECT_DOUBLE_EQ(a.temps_k[i], b.temps_k[i]);
    }
}

TEST(Evaluator, TemperaturesAboveAmbientBelowMelting)
{
    const Evaluator e(fastParams());
    const auto op =
        e.evaluate(sim::baseMachine(), workload::findApp("MP3dec"));
    for (double t : op.temps_k) {
        EXPECT_GT(t, e.params().thermal_params.ambient_k);
        EXPECT_LT(t, 450.0);
    }
    EXPECT_GE(op.maxTemp(), op.avgTemp());
    EXPECT_GT(op.sink_temp_k, e.params().thermal_params.ambient_k);
    EXPECT_LT(op.sink_temp_k, op.avgTemp());
}

TEST(Evaluator, LeakageFeedbackRaisesPowerAndTemperature)
{
    EvalParams on = fastParams();
    EvalParams off = fastParams();
    off.leakage_feedback = false;
    const auto &app = workload::findApp("MPGdec");
    const auto op_on = Evaluator(on).evaluate(sim::baseMachine(), app);
    const auto op_off =
        Evaluator(off).evaluate(sim::baseMachine(), app);
    // Feedback at > 383 K reference... our temps are below 383, so
    // the no-feedback variant (pinned at 383) *overstates* leakage
    // for cool runs; what must hold is simply that they differ and
    // that both converge.
    EXPECT_NE(op_on.power.totalLeakage(), op_off.power.totalLeakage());
    EXPECT_GT(op_on.power.totalLeakage(), 0.0);
}

TEST(Evaluator, HigherFrequencyRunsHotter)
{
    const Evaluator e(fastParams());
    const auto &app = workload::findApp("bzip2");
    sim::MachineConfig slow = sim::baseMachine();
    slow.frequency_ghz = 2.5;
    slow.voltage_v = 0.85;
    const auto op_slow = e.evaluate(slow, app);
    const auto op_base = e.evaluate(sim::baseMachine(), app);
    EXPECT_GT(op_base.totalPower(), op_slow.totalPower());
    EXPECT_GT(op_base.maxTemp(), op_slow.maxTemp());
    EXPECT_GT(op_base.uopsPerSecond(), op_slow.uopsPerSecond());
}

TEST(Evaluator, MissRatiosPopulated)
{
    const Evaluator e(fastParams());
    const auto op =
        e.evaluate(sim::baseMachine(), workload::findApp("art"));
    EXPECT_GT(op.l1d_miss_ratio, 0.0);
    EXPECT_LT(op.l1d_miss_ratio, 1.0);
    EXPECT_GT(op.l2_miss_ratio, 0.0);
}

TEST(Evaluator, ConvergeThermalIsIdempotent)
{
    const Evaluator e(fastParams());
    const auto &app = workload::findApp("equake");
    const auto op = e.evaluate(sim::baseMachine(), app);
    const auto again =
        e.convergeThermal(sim::baseMachine(), op.activity, op.stats);
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        EXPECT_NEAR(again.temps_k[i], op.temps_k[i], 0.05);
}

TEST(Evaluator, ConvergeThermalMatchesGolden)
{
    // One fixed twolf activity sample through the fixed point, pinned
    // bit for bit to the values captured before the single-core and
    // chip fixed points were merged into tryConvergeLeakage.
    sim::ActivitySample sample;
    sample.cycles = 94361;
    sample.retired = 40001;
    sample.activity =
        {0x1.796318e2dee4cp-5, 0x0p+0, 0x1.0bbc47bfd9be5p-5, 0x0p+0,
         0x1.0886e3be87bddp-5, 0x1.217c833069c8ep-5, 0x1.2e60e43cef039p-4,
         0x1.2e60e43cef039p-4, 0x1.c6b24268905a4p-4, 0x1.b23ac4c89ead5p-5};
    const sim::PerStructure<double> want_k =
        {0x1.49fb36bbd5d8cp+8, 0x1.4780556663adap+8, 0x1.497fc63336aaep+8,
         0x1.475ea79750d42p+8, 0x1.49313d73d44cap+8, 0x1.4a2cb61795948p+8,
         0x1.49dd9ea42987ep+8, 0x1.46e1ee7fe0587p+8, 0x1.49dfd34dc266ap+8,
         0x1.4bf42504b4954p+8};

    const Evaluator e;
    const auto op = e.convergeThermal(sim::baseMachine(), sample, {});
    for (std::size_t i = 0; i < sim::num_structures; ++i)
        EXPECT_EQ(op.temps_k[i], want_k[i]) << i;
    EXPECT_EQ(op.sink_temp_k, 0x1.389b48ebb87e5p+8);
    EXPECT_EQ(op.totalPower(), 0x1.c03ae56d19d38p+3);
    EXPECT_TRUE(op.converged);

    const power::PowerModel pmodel(sim::baseMachine(),
                                   e.params().power_params);
    const auto dyn = pmodel.dynamicPower(sample);
    const auto fp = tryConvergeLeakage(
        thermal::ThermalModel(e.params().thermal_params), {&pmodel, 1},
        {&dyn, 1}, e.params());
    ASSERT_TRUE(fp.ok()) << fp.error().message;
    EXPECT_EQ(fp.value().iterations, 11u);
    EXPECT_EQ(fp.value().temps_k[0], op.temps_k);
}

TEST(Evaluator, NearLimitFixedPointsAreCounted)
{
    // This twolf sample converges in 11 iterations. Under a limit of
    // 12 it stops in the limit's last 10% and is counted; under the
    // default 100 it is not, and neither is a default fig2 base point.
    const auto near_limit = [] {
        return telemetry::Registry::instance().snapshot().counter(
            "evaluator.near_limit");
    };
    sim::ActivitySample sample;
    sample.cycles = 94361;
    sample.retired = 40001;
    sample.activity =
        {0x1.796318e2dee4cp-5, 0x0p+0, 0x1.0bbc47bfd9be5p-5, 0x0p+0,
         0x1.0886e3be87bddp-5, 0x1.217c833069c8ep-5, 0x1.2e60e43cef039p-4,
         0x1.2e60e43cef039p-4, 0x1.c6b24268905a4p-4, 0x1.b23ac4c89ead5p-5};
    EvalParams tight;
    tight.max_iterations = 12;

    const std::uint64_t before = near_limit();
    EXPECT_TRUE(Evaluator(tight)
                    .convergeThermal(sim::baseMachine(), sample, {})
                    .converged);
    EXPECT_EQ(near_limit(), before + 1);

    EXPECT_TRUE(
        Evaluator().convergeThermal(sim::baseMachine(), sample, {})
            .converged);
    ASSERT_TRUE(Evaluator()
                    .tryEvaluate(sim::baseMachine(),
                                 workload::findApp("twolf"))
                    .ok());
    EXPECT_EQ(near_limit(), before + 1);
}

TEST(Evaluator, PerformanceMetricConsistency)
{
    const Evaluator e(fastParams());
    const auto op =
        e.evaluate(sim::baseMachine(), workload::findApp("gzip"));
    EXPECT_NEAR(op.uopsPerSecond(),
                op.ipc() * op.config.frequency_ghz * 1e9, 1.0);
    EXPECT_GT(op.ipc(), 0.0);
}

TEST(EvaluatorDeath, RejectsBadParams)
{
    EvalParams p = fastParams();
    p.measure_uops = 0;
    EXPECT_EXIT(Evaluator{p}, testing::ExitedWithCode(1),
                "measurement");

    p = fastParams();
    p.max_iterations = 0;
    EXPECT_EXIT(Evaluator{p}, testing::ExitedWithCode(1),
                "iteration");

    p = fastParams();
    p.tolerance_k = 0.0;
    EXPECT_EXIT(Evaluator{p}, testing::ExitedWithCode(1),
                "tolerance");
}

} // namespace
} // namespace ramp::core
