/**
 * @file
 * Tests for the oracle DRM/DTM selection logic using synthetic
 * operating points with controlled temperatures, plus one small real
 * exploration end-to-end.
 */

#include <cmath>
#include <cstring>
#include <functional>
#include <string>

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

/** Three points: cool/slow, warm/medium, hot/fast. */
std::vector<ExploredPoint>
syntheticPoints()
{
    std::vector<ExploredPoint> points;
    for (auto [t, f, perf] :
         {std::tuple{345.0, 3.0, 0.8}, std::tuple{370.0, 4.0, 1.0},
          std::tuple{395.0, 4.75, 1.15}})
        points.emplace_back(syntheticOp(t, f), perf);
    return points;
}

/** An exploration of @p points, built (and ranked) the one way. */
ExploredApp
syntheticApp(std::vector<ExploredPoint> points = syntheticPoints())
{
    return ExploredApp("synthetic", syntheticOp(370.0, 4.0),
                       std::move(points));
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
 * The reference oracle: price every point, then keep the first
 * strictly faster feasible one; when nothing is feasible, the first
 * least-violating one. Failed points never participate; with
 * @p require_converged (DRM) neither do non-converged ones.
 */
Selection
referenceSelect(const ExploredApp &app, const core::Qualification &qual,
                bool require_converged,
                const std::function<bool(double fit, double temp_k)>
                    &feasible,
                const std::function<double(double fit, double temp_k)>
                    &violation)
{
    std::size_t best = 0;
    bool found = false;
    double best_perf = -1.0;
    std::size_t fallback = 0;
    bool has_fallback = false;
    double least_violation = 1e300;
    std::vector<double> fit(app.points.size());
    for (std::size_t i = 0; i < app.points.size(); ++i) {
        const ExploredPoint &xp = app.points[i];
        if (!xp.valid || (require_converged && !xp.op.converged))
            continue;
        fit[i] = qual.price(xp.basis(), xp.op.temps_k).totalFit();
        const double temp_k = xp.op.maxTemp();
        if (!has_fallback || violation(fit[i], temp_k) < least_violation) {
            least_violation = violation(fit[i], temp_k);
            fallback = i;
            has_fallback = true;
        }
        if (feasible(fit[i], temp_k) && xp.perf_rel > best_perf) {
            best_perf = xp.perf_rel;
            best = i;
            found = true;
        }
    }
    EXPECT_TRUE(has_fallback);
    Selection sel;
    sel.index = found ? best : fallback;
    sel.feasible = found;
    const ExploredPoint &xp = app.points[sel.index];
    sel.config = xp.op.config;
    sel.perf_rel = xp.perf_rel;
    sel.fit = fit[sel.index];
    sel.max_temp_k = xp.op.maxTemp();
    sel.converged = xp.op.converged;
    return sel;
}

Selection
referenceDrm(const ExploredApp &app, const core::Qualification &qual)
{
    const double target = qual.spec().target_fit;
    return referenceSelect(
        app, qual, true,
        [&](double fit, double) { return fit <= target; },
        [](double fit, double) { return fit; });
}

Selection
referenceDtm(const ExploredApp &app, double t_design_k,
             const core::Qualification &qual)
{
    return referenceSelect(
        app, qual, false,
        [&](double, double temp_k) { return temp_k <= t_design_k; },
        [](double, double temp_k) { return temp_k; });
}

/** Every field of @p got equals @p want bit for bit. */
void
expectSameSelection(const Selection &got, const Selection &want,
                    const std::string &where)
{
    EXPECT_EQ(got.index, want.index) << where;
    EXPECT_TRUE(sameBits(got.config.frequency_ghz,
                         want.config.frequency_ghz))
        << where;
    EXPECT_TRUE(sameBits(got.config.voltage_v, want.config.voltage_v))
        << where;
    EXPECT_EQ(got.config.window_size, want.config.window_size) << where;
    EXPECT_EQ(got.config.num_int_alu, want.config.num_int_alu) << where;
    EXPECT_EQ(got.config.num_fpu, want.config.num_fpu) << where;
    EXPECT_TRUE(sameBits(got.perf_rel, want.perf_rel)) << where;
    EXPECT_TRUE(sameBits(got.fit, want.fit)) << where;
    EXPECT_TRUE(sameBits(got.max_temp_k, want.max_temp_k)) << where;
    EXPECT_EQ(got.feasible, want.feasible) << where;
    EXPECT_EQ(got.converged, want.converged) << where;
}

/** The 16 T_quals the serve mix selects at (325-400 K). */
double
serveTQualK(int k)
{
    return 325.0 + 5.0 * k;
}

/**
 * DRM at the 16 serve T_quals and DTM at each of them x several
 * T_design values (from everything-feasible down to nothing-feasible)
 * choose exactly what the reference full scan chooses.
 */
void
expectSelectsLikeReference(const ExploredApp &app)
{
    for (int k = 0; k < 16; ++k) {
        const auto qual = makeQual(serveTQualK(k));
        const std::string at = "T_qual " + std::to_string(qual.spec().t_qual_k);
        expectSameSelection(selectDrm(app, qual), referenceDrm(app, qual),
                            "DRM at " + at);
        for (double t_design_k : {300.0, 345.0, 355.0, 365.0, 370.0,
                                  380.0, 400.0, 500.0})
            expectSameSelection(
                selectDtm(app, t_design_k, qual),
                referenceDtm(app, t_design_k, qual),
                "DTM at " + at + ", T_design " +
                    std::to_string(t_design_k));
    }
}

/**
 * At each of the 16 T_quals the serve mix selects at (325-400 K), and
 * at a 310 K ambient, every valid point's basis pricing equals the
 * reference report entry for entry, its operatingPointFit equals the
 * reference total, and so does each DRM/DTM winner's fit, bit for bit.
 */
void
expectPricedLikeReference(const ExploredApp &app)
{
    for (double ambient_k : {300.0, 310.0}) {
        for (int k = 0; k < 16; ++k) {
            core::QualificationSpec spec;
            spec.t_qual_k = serveTQualK(k);
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
            }
            for (const Selection &sel : {drm_sel, dtm_sel})
                EXPECT_TRUE(sameBits(
                    sel.fit,
                    referenceReport(qual, app.points[sel.index].op)
                        .totalFit()))
                    << "winner " << sel.index << " T_qual "
                    << spec.t_qual_k;
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

TEST(Selection, CarriesTheWinnersConfigAndPoint)
{
    // A selection describes its winner only: its configuration, and
    // the perf_rel, FIT, temperature and convergence of its point.
    const auto app = syntheticApp();
    const auto qual = makeQual(371.0);

    const auto drm_sel = selectDrm(app, qual);
    const ExploredPoint &drm_pt = app.points[drm_sel.index];
    EXPECT_DOUBLE_EQ(drm_sel.config.frequency_ghz,
                     drm_pt.op.config.frequency_ghz);
    EXPECT_DOUBLE_EQ(drm_sel.perf_rel, drm_pt.perf_rel);
    EXPECT_DOUBLE_EQ(drm_sel.fit, operatingPointFit(qual, drm_pt.op));
    EXPECT_DOUBLE_EQ(drm_sel.max_temp_k, drm_pt.op.maxTemp());
    EXPECT_TRUE(drm_sel.feasible);
    EXPECT_LE(drm_sel.fit, qual.spec().target_fit);
    EXPECT_TRUE(drm_sel.converged);

    const auto dtm_sel = selectDtm(app, 380.0, qual);
    EXPECT_TRUE(dtm_sel.feasible);
    EXPECT_LE(dtm_sel.max_temp_k, 380.0);
    EXPECT_DOUBLE_EQ(dtm_sel.max_temp_k,
                     app.points[dtm_sel.index].op.maxTemp());
    // Every faster point is over T_design.
    for (const auto &pt : app.points) {
        if (pt.perf_rel > dtm_sel.perf_rel) {
            EXPECT_GT(pt.op.maxTemp(), 380.0);
        }
    }
}

TEST(Selection, EqualPerfPicksTheLowestIndex)
{
    // Two feasible points equally fast as the fastest: index 1 wins,
    // under both policies, whatever their FIT or temperature order.
    auto points = syntheticPoints();
    points.emplace(points.begin() + 1, syntheticOp(360.0, 4.75), 1.15);
    points.emplace_back(syntheticOp(340.0, 4.75), 1.15);
    const ExploredApp app = syntheticApp(std::move(points));
    const auto qual = makeQual(400.0);
    EXPECT_EQ(selectDrm(app, qual).index, 1u);
    EXPECT_EQ(selectDtm(app, 400.0, qual).index, 1u);
    expectSelectsLikeReference(app);
}

TEST(Selection, NothingFeasibleFallsBackLikeTheReference)
{
    // Both fallbacks, with the least-violating value shared by two
    // points: the lower index wins.
    auto points = syntheticPoints();
    points.emplace_back(syntheticOp(345.0, 3.0), 0.9);
    const ExploredApp app = syntheticApp(std::move(points));
    const auto drm_sel = selectDrm(app, makeQual(330.0));
    EXPECT_FALSE(drm_sel.feasible);
    EXPECT_EQ(drm_sel.index, 0u);
    const auto dtm_sel = selectDtm(app, 320.0, makeQual());
    EXPECT_FALSE(dtm_sel.feasible);
    EXPECT_EQ(dtm_sel.index, 0u);
    expectSelectsLikeReference(app);
}

TEST(Selection, NonConvergedFastestPointIsSkippedByDrmOnly)
{
    // The fastest point did not converge: DRM never chooses (or even
    // falls back to) it; DTM still may.
    auto points = syntheticPoints();
    core::OperatingPoint hot = syntheticOp(350.0, 5.0);
    hot.converged = false;
    points.emplace_back(std::move(hot), 1.3);
    const ExploredApp app = syntheticApp(std::move(points));
    const auto qual = makeQual(400.0);
    const auto drm_sel = selectDrm(app, qual);
    EXPECT_EQ(drm_sel.index, 2u);
    EXPECT_TRUE(drm_sel.converged);
    const auto dtm_sel = selectDtm(app, 400.0, qual);
    EXPECT_EQ(dtm_sel.index, 3u);
    EXPECT_FALSE(dtm_sel.converged);
    EXPECT_GT(dtm_sel.fit, 0.0);
    expectSelectsLikeReference(app);

    // Only the hottest point converged: nothing is feasible, and
    // DRM's fallback is that point although cooler ones exist.
    auto lone_points = syntheticPoints();
    for (std::size_t i : {0u, 1u}) {
        core::OperatingPoint op = lone_points[i].op;
        op.converged = false;
        lone_points[i] = ExploredPoint(std::move(op), lone_points[i].perf_rel);
    }
    const ExploredApp lone = syntheticApp(std::move(lone_points));
    const auto fallback = selectDrm(lone, makeQual(330.0));
    EXPECT_FALSE(fallback.feasible);
    EXPECT_EQ(fallback.index, 2u);
    expectSelectsLikeReference(lone);
}

TEST(Selection, FailedPointsNeverParticipate)
{
    // Failed evaluations around and in front of the winner.
    auto points = syntheticPoints();
    points.insert(points.begin(), ExploredPoint{});
    points.insert(points.begin() + 2, ExploredPoint{});
    points.emplace_back();
    const ExploredApp app = syntheticApp(std::move(points));
    for (double tq : {400.0, 371.0, 330.0}) {
        const auto sel = selectDrm(app, makeQual(tq));
        EXPECT_TRUE(app.points[sel.index].valid) << tq;
    }
    for (double td : {400.0, 380.0, 320.0}) {
        const auto sel = selectDtm(app, td, makeQual());
        EXPECT_TRUE(app.points[sel.index].valid) << td;
    }
    expectSelectsLikeReference(app);
}

TEST(ExploredApp, RanksItsPointsFastestFirstOnceBuilt)
{
    // Valid points with perf_rel >= 0, fastest first, ties by index;
    // failed, negative-speed and NaN-speed points never rank.
    std::vector<ExploredPoint> points;
    for (double perf : {0.9, 1.1, -0.5, 1.1, 0.2, 1.3, 0.9})
        points.emplace_back(syntheticOp(360.0, 4.0), perf);
    points.emplace_back(syntheticOp(360.0, 4.0), std::nan(""));
    points.insert(points.begin() + 2, ExploredPoint{});
    core::OperatingPoint slow = syntheticOp(360.0, 4.0);
    slow.converged = false; // ranks; only DRM skips it
    points.emplace_back(std::move(slow), 0.5);
    const ExploredApp app = syntheticApp(std::move(points));
    EXPECT_EQ(app.fastestFirst(),
              (std::vector<std::size_t>{6, 1, 4, 0, 7, 9, 5}));
    EXPECT_EQ(app.points.size(), 10u);

    // Copies and moves carry the ranking with the points.
    ExploredApp copy = app;
    EXPECT_EQ(copy.fastestFirst(), app.fastestFirst());
    const ExploredApp moved = std::move(copy);
    EXPECT_EQ(moved.fastestFirst(), app.fastestFirst());
    EXPECT_TRUE(ExploredApp().fastestFirst().empty());
}

TEST(SelectDeath, NothingSelectableIsFatal)
{
    const ExploredApp failed = syntheticApp(std::vector<ExploredPoint>(3));
    EXPECT_EXIT(selectDrm(failed, makeQual()),
                testing::ExitedWithCode(1), "nothing to select");
    EXPECT_EXIT(selectDtm(failed, 370.0, makeQual()),
                testing::ExitedWithCode(1), "nothing to select");
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

    // The fig4 (DVS) space prices and selects bit for bit like the
    // reference.
    expectPricedLikeReference(explored);
    expectSelectsLikeReference(explored);
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
    expectSelectsLikeReference(explored);
}

} // namespace
} // namespace ramp::drm
