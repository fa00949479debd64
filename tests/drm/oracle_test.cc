/**
 * @file
 * Tests for the oracle DRM/DTM selection logic using synthetic
 * operating points with controlled temperatures, plus one small real
 * exploration end-to-end.
 */

#include <cstring>

#include <gtest/gtest.h>

#include "drm/oracle.hh"
#include "power/power.hh"

namespace ramp::drm {
namespace {

core::Qualification
makeQual(double t_qual = 380.0)
{
    core::QualificationSpec s;
    s.t_qual_k = t_qual;
    s.alpha_qual.fill(0.5);
    return core::Qualification(s);
}

/** Synthetic operating point at uniform temperature/activity. */
core::OperatingPoint
syntheticOp(double temp_k, double freq_ghz, double voltage_v = 1.0)
{
    core::OperatingPoint op;
    op.config = sim::baseMachine();
    op.config.frequency_ghz = freq_ghz;
    op.config.voltage_v = voltage_v;
    op.temps_k.fill(temp_k);
    op.activity.activity.fill(0.5);
    op.activity.cycles = 1000;
    op.activity.retired = 1000;
    return op;
}

ExploredApp
syntheticApp()
{
    // Three points: cool/slow, warm/medium, hot/fast.
    ExploredApp app;
    app.app_name = "synthetic";
    app.base = syntheticOp(370.0, 4.0);
    for (auto [t, f, perf] :
         {std::tuple{345.0, 3.0, 0.8}, std::tuple{370.0, 4.0, 1.0},
          std::tuple{395.0, 4.75, 1.15}})
        app.points.emplace_back(syntheticOp(t, f), perf);
    return app;
}

/** The FIT report a point must price to bit for bit: one second of
 *  the multi-interval RampEngine. */
core::FitReport
referenceReport(const core::Qualification &qual,
                const core::OperatingPoint &op)
{
    core::RampEngine engine(qual, power::poweredFractions(op.config));
    engine.addInterval(op.temps_k, op.activity.activity,
                       op.config.voltage_v, op.config.frequency_ghz, 1.0);
    return engine.report();
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * At each of the 16 T_quals the serve mix selects at (325-400 K), and
 * at a 310 K ambient, every valid point's basis pricing equals the
 * reference report entry for entry, and its operatingPointFit and
 * DRM/DTM Selection::table FIT equal the reference total, bit for bit.
 */
void
expectPricedLikeReference(const ExploredApp &app)
{
    for (double ambient_k : {300.0, 310.0}) {
        for (int k = 0; k < 16; ++k) {
            core::QualificationSpec spec;
            spec.t_qual_k = 325.0 + 5.0 * k;
            spec.alpha_qual.fill(0.5);
            spec.ambient_k = ambient_k;
            const core::Qualification qual(spec);
            const auto drm_sel = selectDrm(app, qual);
            const auto dtm_sel = selectDtm(app, 370.0, qual);
            for (std::size_t i = 0; i < app.points.size(); ++i) {
                const ExploredPoint &pt = app.points[i];
                if (!pt.valid)
                    continue;
                const auto want = referenceReport(qual, pt.op);
                const auto got = qual.price(pt.basis(), pt.op.temps_k);
                EXPECT_EQ(std::memcmp(&got.fit, &want.fit, sizeof got.fit),
                          0)
                    << "point " << i << " T_qual " << spec.t_qual_k;
                const double total = want.totalFit();
                EXPECT_TRUE(sameBits(got.totalFit(), total));
                EXPECT_TRUE(sameBits(operatingPointFit(qual, pt.op), total));
                EXPECT_TRUE(sameBits(drm_sel.table[i].fit, total));
                EXPECT_TRUE(sameBits(dtm_sel.table[i].fit, total));
            }
        }
    }
}

TEST(OperatingPointFit, AtQualPointEqualsTarget)
{
    const auto qual = makeQual(380.0);
    const auto op = syntheticOp(380.0, 4.0);
    EXPECT_NEAR(operatingPointFit(qual, op), 4000.0, 1e-6);
}

TEST(OperatingPointFit, HotterIsWorse)
{
    const auto qual = makeQual();
    EXPECT_GT(operatingPointFit(qual, syntheticOp(395.0, 4.0)),
              operatingPointFit(qual, syntheticOp(350.0, 4.0)));
}

TEST(OperatingPointFit, LowerVoltageCollapsesTddb)
{
    // Section 7.2: small voltage drops reduce the TDDB FIT value
    // drastically. The *total* drops by roughly the TDDB share (the
    // mechanical mechanisms are voltage-blind).
    const auto qual = makeQual();
    const auto op_full = syntheticOp(370.0, 4.0, 1.0);
    const auto op_drop = syntheticOp(370.0, 4.0, 0.9);

    auto report = [&](const core::OperatingPoint &op) {
        return core::steadyFit(qual, power::poweredFractions(op.config),
                               op.temps_k, op.activity.activity,
                               op.config.voltage_v,
                               op.config.frequency_ghz);
    };
    const auto full = report(op_full);
    const auto dropped = report(op_drop);
    // TDDB itself collapses by orders of magnitude...
    EXPECT_LT(dropped.mechanismFit(core::Mechanism::TDDB),
              0.01 * full.mechanismFit(core::Mechanism::TDDB));
    // ...SM and TC are untouched...
    EXPECT_NEAR(dropped.mechanismFit(core::Mechanism::SM),
                full.mechanismFit(core::Mechanism::SM), 1e-9);
    EXPECT_NEAR(dropped.mechanismFit(core::Mechanism::TC),
                full.mechanismFit(core::Mechanism::TC), 1e-9);
    // ...and the total falls by most of the TDDB share.
    EXPECT_LT(dropped.totalFit(), operatingPointFit(qual, op_full));
}

TEST(AlphaQual, TakesSuiteWideMaximum)
{
    // Section 3.7: a single worst-case activity factor for the whole
    // suite, applied uniformly.
    core::OperatingPoint a = syntheticOp(370.0, 4.0);
    core::OperatingPoint b = syntheticOp(370.0, 4.0);
    a.activity.activity[0] = 0.9;
    b.activity.activity[1] = 0.7;
    const auto alpha = alphaQualFromBaseline({a, b});
    for (double v : alpha)
        EXPECT_DOUBLE_EQ(v, 0.9);
}

TEST(AlphaQualDeath, EmptyBaselineIsFatal)
{
    EXPECT_EXIT(alphaQualFromBaseline({}), testing::ExitedWithCode(1),
                "at least one");
}

TEST(SelectDrm, PicksFastestFeasiblePoint)
{
    const auto app = syntheticApp();
    // Qualified at 400 K: even the hot point is under budget.
    const auto sel = selectDrm(app, makeQual(400.0));
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(sel.index, 2u);
    EXPECT_DOUBLE_EQ(sel.perf_rel, 1.15);
    EXPECT_LE(sel.fit, 4000.0);
}

TEST(SelectDrm, ThrottlesWhenUnderDesigned)
{
    const auto app = syntheticApp();
    // Qualified at 371 K: the 395 K point blows the budget, the
    // 370 K point just fits.
    const auto sel = selectDrm(app, makeQual(371.0));
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(sel.index, 1u);
}

TEST(SelectDrm, FallsBackToCoolestWhenNothingFits)
{
    const auto app = syntheticApp();
    // Qualified at 330 K: every point is over budget.
    const auto sel = selectDrm(app, makeQual(330.0));
    EXPECT_FALSE(sel.feasible);
    EXPECT_EQ(sel.index, 0u); // lowest-FIT point
}

TEST(SelectDtm, RespectsThermalDesignPoint)
{
    const auto app = syntheticApp();
    const auto sel = selectDtm(app, 380.0, makeQual());
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(sel.index, 1u); // 395 K point excluded
    EXPECT_LE(sel.max_temp_k, 380.0);
}

TEST(SelectDtm, AcceptsEverythingWithHighLimit)
{
    const auto app = syntheticApp();
    const auto sel = selectDtm(app, 400.0, makeQual());
    EXPECT_TRUE(sel.feasible);
    EXPECT_EQ(sel.index, 2u);
}

TEST(SelectDrm, ReportsTheWinnersFit)
{
    // The selection's fit is the chosen point's FIT, both when a
    // feasible point exists and on the coolest-point fallback.
    const auto app = syntheticApp();
    for (double tq : {400.0, 371.0, 330.0}) {
        const auto qual = makeQual(tq);
        const auto sel = selectDrm(app, qual);
        EXPECT_DOUBLE_EQ(
            sel.fit, operatingPointFit(qual, app.points[sel.index].op))
            << "T_qual=" << tq;
    }
}

TEST(SelectDtm, ReportsRealFitNeverSentinel)
{
    // The DTM policy is reliability-oblivious -- the qualification
    // never changes the choice -- but every selection reports the
    // chosen point's true FIT, not a 0.0 sentinel.
    const auto app = syntheticApp();
    const auto qual = makeQual(380.0);

    const auto sel = selectDtm(app, 380.0, qual);
    EXPECT_GT(sel.fit, 0.0);
    EXPECT_DOUBLE_EQ(
        sel.fit, operatingPointFit(qual, app.points[sel.index].op));

    // A different qualification changes the reported FIT, never the
    // selection itself.
    const auto other = selectDtm(app, 380.0, makeQual(360.0));
    EXPECT_EQ(other.index, sel.index);
    EXPECT_EQ(other.feasible, sel.feasible);
    EXPECT_DOUBLE_EQ(other.perf_rel, sel.perf_rel);
    EXPECT_NE(other.fit, sel.fit);
    EXPECT_GT(other.fit, 0.0);
}

TEST(SelectDtm, ReportsFitOnFallbackSelection)
{
    const auto app = syntheticApp();
    const auto qual = makeQual(380.0);
    const auto sel = selectDtm(app, 320.0, qual); // nothing feasible
    EXPECT_FALSE(sel.feasible);
    EXPECT_DOUBLE_EQ(
        sel.fit, operatingPointFit(qual, app.points[sel.index].op));
}

TEST(SelectDtm, FallsBackToCoolest)
{
    const auto app = syntheticApp();
    const auto sel = selectDtm(app, 320.0, makeQual());
    EXPECT_FALSE(sel.feasible);
    EXPECT_EQ(sel.index, 0u);
}

TEST(Selection, CarriesWinnerConfigAndPerPointTable)
{
    const auto app = syntheticApp();
    const auto qual = makeQual(371.0);

    const auto drm_sel = selectDrm(app, qual);
    ASSERT_EQ(drm_sel.table.size(), app.points.size());
    EXPECT_DOUBLE_EQ(drm_sel.config.frequency_ghz,
                     app.points[drm_sel.index].op.config.frequency_ghz);
    for (std::size_t i = 0; i < app.points.size(); ++i) {
        const auto &pt = drm_sel.table[i];
        EXPECT_DOUBLE_EQ(pt.perf_rel, app.points[i].perf_rel);
        EXPECT_DOUBLE_EQ(pt.fit,
                         operatingPointFit(qual, app.points[i].op));
        EXPECT_DOUBLE_EQ(pt.max_temp_k, app.points[i].op.maxTemp());
        EXPECT_EQ(pt.feasible, pt.fit <= qual.spec().target_fit);
    }
    // The winner's scalar fields mirror its table row.
    EXPECT_DOUBLE_EQ(drm_sel.fit, drm_sel.table[drm_sel.index].fit);
    EXPECT_DOUBLE_EQ(drm_sel.perf_rel,
                     drm_sel.table[drm_sel.index].perf_rel);

    const auto dtm_sel = selectDtm(app, 380.0, qual);
    ASSERT_EQ(dtm_sel.table.size(), app.points.size());
    for (std::size_t i = 0; i < app.points.size(); ++i)
        EXPECT_EQ(dtm_sel.table[i].feasible,
                  dtm_sel.table[i].max_temp_k <= 380.0);
}

TEST(SelectDeath, EmptyExplorationIsFatal)
{
    ExploredApp empty;
    EXPECT_EXIT(selectDrm(empty, makeQual()),
                testing::ExitedWithCode(1), "empty");
    EXPECT_EXIT(selectDtm(empty, 370.0, makeQual()),
                testing::ExitedWithCode(1), "empty");
}

TEST(Explorer, SmallRealExplorationEndToEnd)
{
    core::EvalParams params;
    params.warmup_uops = 40'000;
    params.measure_uops = 60'000;
    const OracleExplorer explorer(params);
    const auto explored = explorer.explore(
        workload::findApp("twolf"), AdaptationSpace::Dvs);

    ASSERT_EQ(explored.points.size(), 11u);
    // Base machine sits in the ladder: its perf_rel must be ~1.
    bool saw_base = false;
    for (const auto &pt : explored.points) {
        EXPECT_GT(pt.perf_rel, 0.0);
        if (pt.op.config.frequency_ghz == 4.0) {
            EXPECT_NEAR(pt.perf_rel, 1.0, 1e-9);
            saw_base = true;
        }
    }
    EXPECT_TRUE(saw_base);

    // Higher frequency never loses absolute performance.
    for (std::size_t i = 1; i < explored.points.size(); ++i)
        EXPECT_GE(explored.points[i].op.uopsPerSecond(),
                  explored.points[i - 1].op.uopsPerSecond() * 0.98);

    // DRM at a generous T_qual picks at least base performance.
    const auto sel = selectDrm(explored, makeQual(400.0));
    EXPECT_GE(sel.perf_rel, 1.0 - 1e-9);

    // The fig4 (DVS) space prices bit for bit like the reference.
    expectPricedLikeReference(explored);
}

TEST(Explorer, Fig2ArchDvsSpacePricesLikeTheReference)
{
    // Every fig2 ArchDVS point, power-gated configurations (fewer
    // ALUs/FPUs, smaller windows and queues) included.
    core::EvalParams params;
    params.warmup_uops = 40'000;
    params.measure_uops = 60'000;
    EvaluationCache cache(""); // in-memory: the DVS rungs share runs
    const OracleExplorer explorer(params, &cache);
    const auto explored = explorer.explore(workload::findApp("twolf"),
                                           AdaptationSpace::ArchDvs);
    ASSERT_EQ(explored.points.size(), 198u);
    expectPricedLikeReference(explored);
}

} // namespace
} // namespace ramp::drm
