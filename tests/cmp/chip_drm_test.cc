/**
 * @file
 * Tests for chip-level DRM: the shared-qualification FIT pricing,
 * PerCore vs Global budget policies (Global dominates PerCore and
 * respects the chip sum), cross-core wear leveling with hysteresis,
 * and nested multi-app exploration determinism.
 */

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cmp/chip_drm.hh"
#include "cmp/wear.hh"
#include "drm/oracle.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp::cmp {
namespace {

core::QualificationSpec
chipSpec(double chip_target_fit, double t_qual_k = 380.0)
{
    core::QualificationSpec s;
    s.target_fit = chip_target_fit;
    s.t_qual_k = t_qual_k;
    s.alpha_qual.fill(0.5);
    return s;
}

/** Synthetic operating point at uniform temperature/activity. */
core::OperatingPoint
syntheticOp(double temp_k, double freq_ghz)
{
    core::OperatingPoint op;
    op.config = sim::baseMachine();
    op.config.frequency_ghz = freq_ghz;
    op.temps_k.fill(temp_k);
    op.activity.activity.fill(0.5);
    op.activity.cycles = 1000;
    op.activity.retired = 1000;
    return op;
}

/** An app whose points sit at the given (temp, perf) pairs. */
drm::ExploredApp
syntheticApp(
    const std::string &name,
    const std::vector<std::pair<double, double>> &temp_perf)
{
    std::vector<drm::ExploredPoint> points;
    for (const auto &[t, perf] : temp_perf)
        points.emplace_back(syntheticOp(t, 4.0), perf);
    return drm::ExploredApp(name, syntheticOp(temp_perf.front().first, 4.0),
                            std::move(points));
}

TEST(BudgetPolicy, NamesRoundTrip)
{
    EXPECT_STREQ(budgetPolicyName(BudgetPolicy::PerCore),
                 "per-core");
    EXPECT_STREQ(budgetPolicyName(BudgetPolicy::Global), "global");
    EXPECT_EQ(budgetPolicyFromName("per-core"),
              BudgetPolicy::PerCore);
    EXPECT_EQ(budgetPolicyFromName("global"), BudgetPolicy::Global);
    EXPECT_EQ(budgetPolicyFromName("GLOBAL"), std::nullopt);
    EXPECT_EQ(budgetPolicyFromName(""), std::nullopt);
}

TEST(SelectChipDrm, GlobalDominatesPerCoreAndRespectsChipSum)
{
    // Two cores under one chip budget. The cool app leaves most of
    // its share unused; the hot app has a faster point priced above
    // one share but within the headroom the cool core donates.
    const auto spec = chipSpec(8000.0);
    const double share = 4000.0;
    const auto cool = syntheticApp(
        "cool", {{340.0, 0.8}, {348.0, 0.95}, {355.0, 1.0}});
    const auto hot = syntheticApp(
        "hot", {{372.0, 0.8}, {378.0, 1.0}, {386.0, 1.2}});
    const std::vector<const drm::ExploredApp *> cores{&cool, &hot};

    // Validate the scenario against the real FIT model: the hot
    // app's fast point must exceed one share (PerCore rejects it)
    // but fit in the chip budget next to the cool selection.
    core::QualificationSpec share_spec = spec;
    share_spec.target_fit = share;
    const core::Qualification qual(share_spec);
    const double fit_hot_mid =
        drm::operatingPointFit(qual, hot.points[1].op);
    const double fit_hot_fast =
        drm::operatingPointFit(qual, hot.points[2].op);
    const double fit_cool_best =
        drm::operatingPointFit(qual, cool.points[2].op);
    ASSERT_LT(fit_hot_mid, share);
    ASSERT_GT(fit_hot_fast, share);
    ASSERT_LT(fit_cool_best + fit_hot_fast, spec.target_fit);

    const auto per_core =
        selectChipDrm(cores, spec, BudgetPolicy::PerCore);
    const auto global =
        selectChipDrm(cores, spec, BudgetPolicy::Global);

    // PerCore: every core within its own share; the hot core is
    // stuck at the mid point.
    EXPECT_TRUE(per_core.feasible);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_LE(per_core.cores[c].fit, share);
    EXPECT_DOUBLE_EQ(per_core.cores[1].perf_rel, 1.0);

    // Global: no core regresses, the hot core is upgraded past its
    // share, and the chip sum still holds.
    EXPECT_TRUE(global.feasible);
    for (std::size_t c = 0; c < 2; ++c)
        EXPECT_GE(global.cores[c].perf_rel,
                  per_core.cores[c].perf_rel)
            << c;
    EXPECT_GT(global.throughput_rel, per_core.throughput_rel);
    EXPECT_DOUBLE_EQ(global.cores[1].perf_rel, 1.2);
    EXPECT_GT(global.cores[1].fit, share);
    EXPECT_LE(global.chip_fit, spec.target_fit);
    EXPECT_DOUBLE_EQ(global.throughput_rel,
                     global.cores[0].perf_rel +
                         global.cores[1].perf_rel);
    ASSERT_EQ(global.budget_fit.size(), 2u);
    EXPECT_DOUBLE_EQ(global.budget_fit[1], global.cores[1].fit);
}

TEST(SelectChipDrm, IdenticalCoresSplitEvenly)
{
    // Four identical cores: Global has no donor/recipient asymmetry
    // to exploit beyond what discreteness allows, and every core
    // must end at least as fast as its PerCore pick.
    const auto spec = chipSpec(16000.0);
    const auto app = syntheticApp(
        "mid", {{350.0, 0.8}, {370.0, 1.0}, {392.0, 1.25}});
    const std::vector<const drm::ExploredApp *> cores(4, &app);
    const auto per_core =
        selectChipDrm(cores, spec, BudgetPolicy::PerCore);
    const auto global =
        selectChipDrm(cores, spec, BudgetPolicy::Global);
    EXPECT_GE(global.throughput_rel, per_core.throughput_rel);
    EXPECT_LE(global.chip_fit, spec.target_fit);
    for (std::size_t c = 0; c < 4; ++c)
        EXPECT_GE(global.cores[c].perf_rel,
                  per_core.cores[c].perf_rel);
}

TEST(SelectChipDrm, InfeasibleEverywhereIsReportedNotPatched)
{
    // Both cores' every point blows the whole chip budget: PerCore
    // and Global both fall back (lowest FIT) and report infeasible.
    const auto spec = chipSpec(2000.0);
    const auto scorching =
        syntheticApp("scorching", {{395.0, 1.0}, {399.0, 1.1}});
    const std::vector<const drm::ExploredApp *> cores{&scorching,
                                                      &scorching};
    const auto per_core =
        selectChipDrm(cores, spec, BudgetPolicy::PerCore);
    const auto global =
        selectChipDrm(cores, spec, BudgetPolicy::Global);
    EXPECT_FALSE(per_core.feasible);
    EXPECT_FALSE(global.feasible);
    // The fallback is the least-violating point, not the fastest.
    EXPECT_DOUBLE_EQ(per_core.cores[0].perf_rel, 1.0);
    EXPECT_DOUBLE_EQ(global.cores[0].perf_rel, 1.0);
}

TEST(WearLeveler, MigratesOnSpreadWithHysteresisAndCooldown)
{
    const core::Qualification qual(chipSpec(4000.0));
    WearParams params;
    params.migrate_spread_frac = 1e-3;
    params.rearm_spread_frac = 5e-4;
    params.cooldown_epochs = 2;
    WearLeveler wear(qual, 2, params);

    const auto hot_op = syntheticOp(392.0, 4.0);
    const auto cool_op = syntheticOp(345.0, 4.0);
    std::vector<std::size_t> assignment{0, 1}; // app 0 on core 0
    const double epoch_hours = 500.0;

    // Damage the cores unevenly until the policy fires; app 0 (hot)
    // starts on core 0.
    int fired_at = -1;
    for (int epoch = 0; epoch < 50; ++epoch) {
        wear.addInterval(0, assignment[0] == 0 ? hot_op : cool_op,
                         epoch_hours);
        wear.addInterval(1, assignment[1] == 1 ? cool_op : hot_op,
                         epoch_hours);
        if (wear.maybeMigrate(assignment)) {
            fired_at = epoch;
            break;
        }
    }
    ASSERT_GE(fired_at, 0) << "spread never triggered a migration";
    // Core 0 accumulated more damage, so the hot app moved off it.
    EXPECT_GT(wear.consumedFrac(0), wear.consumedFrac(1));
    EXPECT_EQ(assignment, (std::vector<std::size_t>{1, 0}));
    EXPECT_EQ(wear.migrations(), 1u);

    // Disarmed: even though the spread is still above the trigger,
    // the very next epoch must not migrate back (no thrash).
    EXPECT_GT(wear.spreadFrac(), params.migrate_spread_frac);
    EXPECT_FALSE(wear.maybeMigrate(assignment));
    EXPECT_EQ(assignment, (std::vector<std::size_t>{1, 0}));

    // With the hot app now on the cooler core the spread closes,
    // re-arms below the lower threshold, and eventually fires again.
    int refires = 0;
    for (int epoch = 0; epoch < 200 && refires == 0; ++epoch) {
        wear.addInterval(0, assignment[0] == 0 ? hot_op : cool_op,
                         epoch_hours);
        wear.addInterval(1, assignment[1] == 1 ? cool_op : hot_op,
                         epoch_hours);
        if (wear.maybeMigrate(assignment))
            ++refires;
    }
    EXPECT_EQ(refires, 1);
    EXPECT_EQ(wear.migrations(), 2u);
    EXPECT_EQ(assignment, (std::vector<std::size_t>{0, 1}));
}

TEST(WearLeveler, ReArmsWhenSpreadRegrowsPastItsLastTrigger)
{
    // With three distinct damage rates the max - min spread has a
    // rising floor: after the first swap the middle core keeps
    // drifting away, so the spread never closes below a (here
    // near-zero) re-arm threshold. The policy must still re-arm once
    // the spread regrows past the level the last migration acted at,
    // or one unlucky swap would disable leveling forever.
    const core::Qualification qual(chipSpec(4000.0));
    WearParams params;
    params.migrate_spread_frac = 1e-3;
    params.rearm_spread_frac = 1e-9; // unreachable on purpose
    params.cooldown_epochs = 2;
    WearLeveler wear(qual, 3, params);

    const core::OperatingPoint ops[] = {
        syntheticOp(392.0, 4.0), // app 0: hot
        syntheticOp(362.0, 4.0), // app 1: middling
        syntheticOp(345.0, 4.0), // app 2: cool
    };
    std::vector<std::size_t> assignment{0, 1, 2};
    std::uint32_t last_fire_epoch = 0;
    std::uint32_t previous_fire_epoch = 0;
    for (std::uint32_t epoch = 1;
         epoch <= 400 && wear.migrations() < 2; ++epoch) {
        for (std::size_t c = 0; c < 3; ++c)
            wear.addInterval(c, ops[assignment[c]], 500.0);
        if (wear.maybeMigrate(assignment)) {
            previous_fire_epoch = last_fire_epoch;
            last_fire_epoch = epoch;
        }
    }
    EXPECT_EQ(wear.migrations(), 2u)
        << "regrown spread never re-armed the trigger";
    // The cooldown still spaces the migrations out.
    EXPECT_GE(last_fire_epoch - previous_fire_epoch,
              params.cooldown_epochs);
}

TEST(WearLeveler, NoMigrationWhenBalanced)
{
    const core::Qualification qual(chipSpec(4000.0));
    WearLeveler wear(qual, 4);
    const auto op = syntheticOp(370.0, 4.0);
    std::vector<std::size_t> assignment{0, 1, 2, 3};
    for (int epoch = 0; epoch < 20; ++epoch) {
        for (std::size_t c = 0; c < 4; ++c)
            wear.addInterval(c, op, 1000.0);
        EXPECT_FALSE(wear.maybeMigrate(assignment));
    }
    EXPECT_EQ(wear.migrations(), 0u);
    EXPECT_EQ(wear.spreadFrac(), 0.0);
    EXPECT_EQ(assignment, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(WearLevelerDeath, RejectsBadThresholds)
{
    const core::Qualification qual(chipSpec(4000.0));
    WearParams inverted;
    inverted.migrate_spread_frac = 0.01;
    inverted.rearm_spread_frac = 0.02;
    EXPECT_EXIT(WearLeveler(qual, 2, inverted),
                testing::ExitedWithCode(1), "rearm < migrate");
    EXPECT_EXIT(WearLeveler(qual, 0), testing::ExitedWithCode(1),
                "at least one core");
}

TEST(ExploreApps, PooledBitIdenticalToSerialViaNestedSubmission)
{
    // exploreApps explores every app in one pass on the explorer's
    // pool. The result must be bit-identical to the fully serial
    // sweep.
    core::EvalParams quick;
    quick.warmup_uops = 30'000;
    quick.measure_uops = 40'000;
    const std::vector<const workload::AppProfile *> apps{
        &workload::findApp("twolf"), &workload::findApp("gzip"),
        &workload::findApp("art")};

    const drm::OracleExplorer serial(quick);
    const auto want = exploreApps(serial, apps,
                                  drm::AdaptationSpace::Dvs);

    util::ThreadPool pool(4);
    drm::OracleExplorer pooled(quick);
    pooled.setPool(&pool);
    const auto got = exploreApps(pooled, apps,
                                 drm::AdaptationSpace::Dvs);

    ASSERT_EQ(got.size(), want.size());
    for (std::size_t a = 0; a < got.size(); ++a) {
        EXPECT_EQ(got[a].app_name, want[a].app_name);
        ASSERT_EQ(got[a].points.size(), want[a].points.size());
        for (std::size_t p = 0; p < got[a].points.size(); ++p) {
            EXPECT_EQ(got[a].points[p].perf_rel,
                      want[a].points[p].perf_rel);
            for (std::size_t i = 0; i < sim::num_structures; ++i)
                EXPECT_EQ(got[a].points[p].op.temps_k[i],
                          want[a].points[p].op.temps_k[i]);
            EXPECT_EQ(got[a].points[p].op.uopsPerSecond(),
                      want[a].points[p].op.uopsPerSecond());
        }
    }
}

} // namespace
} // namespace ramp::cmp
