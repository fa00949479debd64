/**
 * @file
 * Tests for the chip operating-point evaluator: exact 1-core
 * reduction to the single-core evaluation, cold-run determinism at
 * any thread count, and the coupled fixed point actually coupling
 * (a busy neighbor warms an idle core's point).
 */

#include <vector>

#include <gtest/gtest.h>

#include "cmp/evaluator.hh"
#include "drm/oracle.hh"
#include "util/telemetry.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp::cmp {
namespace {

core::EvalParams
quickParams()
{
    core::EvalParams p;
    p.warmup_uops = 30'000;
    p.measure_uops = 40'000;
    return p;
}

/** Exact (bit-level, via ==) equality of two operating points. */
void
expectOpIdentical(const core::OperatingPoint &a,
                  const core::OperatingPoint &b)
{
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.retired, b.activity.retired);
    for (std::size_t i = 0; i < sim::num_structures; ++i) {
        EXPECT_EQ(a.activity.activity[i], b.activity.activity[i]);
        EXPECT_EQ(a.temps_k[i], b.temps_k[i]) << i;
    }
    EXPECT_EQ(a.sink_temp_k, b.sink_temp_k);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.totalPower(), b.totalPower());
    EXPECT_EQ(a.uopsPerSecond(), b.uopsPerSecond());
}

TEST(ChipEvaluator, OneCoreMatchesSingleCoreBitForBit)
{
    // A 1-core chip runs the same timing sample and the same fixed
    // point over a bit-identical thermal system, so the whole
    // operating point reduces exactly to the single-core path.
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(1), &explorer);
    const auto &app = workload::findApp("twolf");
    const auto cfg = sim::baseMachine();

    const auto got = chip.tryEvaluate({&app}, {cfg});
    ASSERT_TRUE(got.ok()) << got.error().message;
    const auto want = explorer.tryEvaluate(cfg, app);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(got.value().cores.size(), 1u);
    expectOpIdentical(got.value().cores[0], want.value());
    EXPECT_EQ(got.value().sink_temp_k, want.value().sink_temp_k);
    EXPECT_EQ(got.value().uopsPerSecond(),
              want.value().uopsPerSecond());
}

TEST(ChipEvaluator, ColdRunsBitIdenticalAtAnyThreadCount)
{
    const auto &twolf = workload::findApp("twolf");
    const auto &gzip = workload::findApp("gzip");
    const std::vector<const workload::AppProfile *> apps{
        &twolf, &gzip, &gzip, &twolf};
    std::vector<sim::MachineConfig> cfgs(4, sim::baseMachine());
    cfgs[1].frequency_ghz = 3.5;
    cfgs[1].voltage_v = 0.95;

    const drm::OracleExplorer serial_explorer(quickParams());
    const ChipEvaluator serial(ChipFloorplan::grid(4),
                               &serial_explorer);
    const auto want = serial.tryEvaluate(apps, cfgs);
    ASSERT_TRUE(want.ok()) << want.error().message;

    util::ThreadPool pool(4);
    const drm::OracleExplorer pooled_explorer(quickParams());
    const ChipEvaluator pooled(ChipFloorplan::grid(4),
                               &pooled_explorer, &pool);
    const auto got = pooled.tryEvaluate(apps, cfgs);
    ASSERT_TRUE(got.ok()) << got.error().message;

    ASSERT_EQ(got.value().cores.size(), want.value().cores.size());
    for (std::size_t c = 0; c < 4; ++c)
        expectOpIdentical(got.value().cores[c],
                          want.value().cores[c]);
    EXPECT_EQ(got.value().sink_temp_k, want.value().sink_temp_k);
    EXPECT_EQ(got.value().converged, want.value().converged);
}

TEST(ChipEvaluator, BusyNeighborWarmsAnIdleCorePoint)
{
    // The chip fixed point must couple the cores: the same app on
    // core0 comes out hotter when core1 runs flat out than when the
    // whole comparison chip is identical except for core1's clock.
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(2), &explorer);
    const auto &app = workload::findApp("twolf");

    auto evaluate_with_neighbor = [&](double neighbor_ghz) {
        std::vector<sim::MachineConfig> cfgs(2, sim::baseMachine());
        cfgs[1].frequency_ghz = neighbor_ghz;
        const auto r = chip.tryEvaluate({&app, &app}, cfgs);
        EXPECT_TRUE(r.ok());
        return r.value();
    };
    const auto slow = evaluate_with_neighbor(3.0);
    const auto fast = evaluate_with_neighbor(4.75);
    EXPECT_GT(fast.cores[0].maxTemp(), slow.cores[0].maxTemp());
    // Core0's own timing sample is neighbor-independent.
    EXPECT_EQ(fast.cores[0].activity.cycles,
              slow.cores[0].activity.cycles);
    EXPECT_EQ(fast.cores[0].uopsPerSecond(),
              slow.cores[0].uopsPerSecond());
}

TEST(ChipEvaluator, TwoCorePointMatchesGolden)
{
    // Pinned bit for bit to the values captured before the chip
    // fixed point and network were merged into the single-core ones.
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(2), &explorer);
    const auto &twolf = workload::findApp("twolf");
    const auto &gzip = workload::findApp("gzip");
    std::vector<sim::MachineConfig> cfgs(2, sim::baseMachine());
    cfgs[1].frequency_ghz = 3.5;
    cfgs[1].voltage_v = 0.95;
    const auto r = chip.tryEvaluate({&twolf, &gzip}, cfgs);
    ASSERT_TRUE(r.ok()) << r.error().message;

    const std::vector<sim::PerStructure<double>> want_k{
        {0x1.5b30c9a1ebcecp+8, 0x1.589d1c1955e94p+8, 0x1.5ac83d6d03d14p+8,
         0x1.589a74a167b53p+8, 0x1.5a5384c6719p+8, 0x1.5b09b5adaf204p+8,
         0x1.5a0684dc8e3a7p+8, 0x1.5805aa60b5db9p+8, 0x1.5b2a31a355c92p+8,
         0x1.5cac3ac7edea1p+8},
        {0x1.5a8356267924ap+8, 0x1.57cf0b7198ab6p+8, 0x1.5a661e7329375p+8,
         0x1.58883f4df5316p+8, 0x1.59bc662659acap+8, 0x1.5a7d880c28becp+8,
         0x1.5a52e384559e4p+8, 0x1.57811dfca97cp+8, 0x1.5b0c8d77aac1p+8,
         0x1.5c5475253e53ap+8}};
    const std::vector<double> want_w{0x1.eba328ad270f8p+3,
                                     0x1.c9c25b1a19992p+3};
    for (std::size_t c = 0; c < 2; ++c) {
        const core::OperatingPoint &op = r.value().cores[c];
        for (std::size_t i = 0; i < sim::num_structures; ++i)
            EXPECT_EQ(op.temps_k[i], want_k[c][i]) << c << "/" << i;
        EXPECT_EQ(op.totalPower(), want_w[c]) << c;
        EXPECT_EQ(op.sink_temp_k, 0x1.46b37eec5e259p+8);
    }
    EXPECT_EQ(r.value().sink_temp_k, 0x1.46b37eec5e259p+8);
    EXPECT_TRUE(r.value().converged);
}

TEST(ChipEvaluator, LeakageClampEngagementIsCounted)
{
    // Eight busy cores share a single-core package, so the coupled
    // point runs away past the leakage clamp -- and says so. A fig2
    // base point stays far below it.
    const auto clamped = [] {
        return telemetry::Registry::instance().snapshot().counter(
            "evaluator.leak_clamped");
    };
    const auto &twolf = workload::findApp("twolf");
    const std::uint64_t before = clamped();
    ASSERT_TRUE(
        core::Evaluator().tryEvaluate(sim::baseMachine(), twolf).ok());
    EXPECT_EQ(clamped(), before);

    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(8), &explorer);
    const auto r = chip.tryEvaluate(
        std::vector<const workload::AppProfile *>(8, &twolf),
        std::vector<sim::MachineConfig>(8, sim::baseMachine()));
    ASSERT_TRUE(r.ok()) << r.error().message;
    EXPECT_GT(r.value().maxTemp(), 450.0);
    EXPECT_EQ(clamped(), before + 1);
}

TEST(ChipEvaluator, ThroughputSumsCores)
{
    const drm::OracleExplorer explorer(quickParams());
    const ChipEvaluator chip(ChipFloorplan::grid(2), &explorer);
    const auto &app = workload::findApp("gzip");
    const std::vector<sim::MachineConfig> cfgs(2,
                                               sim::baseMachine());
    const auto r = chip.tryEvaluate({&app, &app}, cfgs);
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r.value().uopsPerSecond(),
                     r.value().cores[0].uopsPerSecond() +
                         r.value().cores[1].uopsPerSecond());
    EXPECT_GE(r.value().maxTemp(), r.value().cores[0].maxTemp());
}

} // namespace
} // namespace ramp::cmp
