/**
 * @file
 * Tests for the RAMP engine: SOFR combination (Section 3.5) and FIT
 * accumulation over time (Section 3.6).
 */

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "core/engine.hh"
#include "util/constants.hh"

namespace ramp::core {
namespace {

using sim::allStructures;
using sim::PerStructure;
using sim::StructureId;

Qualification
makeQual(double t_qual = 400.0)
{
    QualificationSpec s;
    s.t_qual_k = t_qual;
    s.alpha_qual.fill(0.5);
    return Qualification(s);
}

PerStructure<double>
flat(double v)
{
    PerStructure<double> p;
    p.fill(v);
    return p;
}

PerStructure<double>
ones()
{
    return flat(1.0);
}

TEST(FitReport, TotalsAreSums)
{
    const auto report = steadyFit(makeQual(), ones(), flat(370.0),
                                  flat(0.5), 1.0, 4.0);
    double by_structure = 0.0;
    for (auto s : allStructures())
        by_structure += report.structureFit(s);
    double by_mechanism = 0.0;
    for (auto m : allMechanisms())
        by_mechanism += report.mechanismFit(m);
    EXPECT_NEAR(by_structure, report.totalFit(), 1e-9);
    EXPECT_NEAR(by_mechanism, report.totalFit(), 1e-9);
}

TEST(FitReport, AtQualConditionsTotalIsTarget)
{
    // Uniform temps/activity at exactly the qualification point must
    // reproduce the 4000 FIT target through the whole engine path.
    const auto report = steadyFit(makeQual(385.0), ones(),
                                  flat(385.0), flat(0.5), 1.0, 4.0);
    EXPECT_NEAR(report.totalFit(), 4000.0, 1e-6);
}

TEST(FitReport, MttfMatchesFit)
{
    const auto report = steadyFit(makeQual(385.0), ones(),
                                  flat(385.0), flat(0.5), 1.0, 4.0);
    EXPECT_NEAR(report.mttfYears(),
                util::fitToMttfYears(report.totalFit()), 1e-9);
    EXPECT_NEAR(report.mttfYears(), 28.5, 0.5); // ~30y at 4000 FIT
}

TEST(FitReport, EmptyReportIsZero)
{
    const RampEngine engine(makeQual(), ones());
    const auto report = engine.report();
    EXPECT_EQ(report.totalFit(), 0.0);
    EXPECT_GT(report.mttfYears(), 1e20);
}

TEST(RampEngine, SingleIntervalMatchesSteadyFit)
{
    // steadyFit prices a FitBasis; one one-second engine interval is
    // the reference it must reproduce bit for bit, at the 16 T_quals
    // the serve mix selects at, a non-default ambient, a scaled EM
    // current density, and power-gated structures.
    PerStructure<double> temps_k;
    PerStructure<double> act;
    for (std::size_t i = 0; i < temps_k.size(); ++i) {
        temps_k[i] = 340.0 + 4.5 * static_cast<double>(i);
        act[i] = 0.05 + 0.09 * static_cast<double>(i);
    }
    PerStructure<double> gated = ones();
    gated[sim::structureIndex(StructureId::IntAlu)] = 2.0 / 6.0;
    gated[sim::structureIndex(StructureId::Fpu)] = 0.25;
    gated[sim::structureIndex(StructureId::IWin)] = 0.125;
    gated[sim::structureIndex(StructureId::Lsq)] = 0.25;

    for (double ambient_k : {300.0, 318.0})
        for (double em_j_scale : {1.0, 1.7})
            for (const auto &on : {ones(), gated})
                for (int k = 0; k < 16; ++k) {
                    QualificationSpec spec;
                    spec.t_qual_k = 325.0 + 5.0 * k;
                    spec.alpha_qual.fill(0.5);
                    spec.ambient_k = ambient_k;
                    spec.em_j_scale_qual = em_j_scale;
                    const Qualification qual(spec);
                    RampEngine engine(qual, on, em_j_scale);
                    engine.addInterval(temps_k, act, 0.95, 3.5, 1.0);
                    const auto want = engine.report();
                    const auto got = steadyFit(qual, on, temps_k, act,
                                               0.95, 3.5, em_j_scale);
                    EXPECT_EQ(std::memcmp(&got.fit, &want.fit,
                                          sizeof got.fit),
                              0)
                        << "T_qual " << spec.t_qual_k;
                    EXPECT_EQ(std::memcmp(&got.avg_temp_k,
                                          &want.avg_temp_k,
                                          sizeof got.avg_temp_k),
                              0);
                    EXPECT_EQ(got.total_time_s, want.total_time_s);
                    const double a = got.totalFit();
                    const double b = want.totalFit();
                    EXPECT_EQ(std::memcmp(&a, &b, sizeof a), 0);
                }
}

TEST(RampEngine, AveragesFitOverTime)
{
    // Two equal intervals at different temperatures: EM/SM/TDDB FIT
    // must be the arithmetic mean of the instantaneous FITs
    // (Section 3.6), which exceeds the FIT of the mean temperature
    // because the models are convex in T.
    const auto qual = makeQual();
    RampEngine engine(qual, ones());
    engine.addInterval(flat(345.0), flat(0.4), 1.0, 4.0, 1.0);
    engine.addInterval(flat(385.0), flat(0.4), 1.0, 4.0, 1.0);
    const auto mixed = engine.report();

    const auto cold =
        steadyFit(qual, ones(), flat(345.0), flat(0.4), 1.0, 4.0);
    const auto hot =
        steadyFit(qual, ones(), flat(385.0), flat(0.4), 1.0, 4.0);
    const auto s = StructureId::IntAlu;
    const auto em = mechanismIndex(Mechanism::EM);
    EXPECT_NEAR(
        mixed.fit[sim::structureIndex(s)][em],
        0.5 * (cold.fit[sim::structureIndex(s)][em] +
               hot.fit[sim::structureIndex(s)][em]),
        1e-9);

    const auto at_mean =
        steadyFit(qual, ones(), flat(365.0), flat(0.4), 1.0, 4.0);
    EXPECT_GT(mixed.mechanismFit(Mechanism::EM),
              at_mean.mechanismFit(Mechanism::EM));
}

TEST(RampEngine, DurationWeightsRespected)
{
    const auto qual = makeQual();
    RampEngine heavy_cold(qual, ones());
    heavy_cold.addInterval(flat(345.0), flat(0.4), 1.0, 4.0, 9.0);
    heavy_cold.addInterval(flat(385.0), flat(0.4), 1.0, 4.0, 1.0);

    RampEngine heavy_hot(qual, ones());
    heavy_hot.addInterval(flat(345.0), flat(0.4), 1.0, 4.0, 1.0);
    heavy_hot.addInterval(flat(385.0), flat(0.4), 1.0, 4.0, 9.0);

    EXPECT_LT(heavy_cold.report().totalFit(),
              heavy_hot.report().totalFit());
}

TEST(RampEngine, TcUsesRunAverageTemperature)
{
    // Thermal cycling is evaluated once on the average temperature
    // (Section 3.6), not averaged per interval: for TC the two-phase
    // run equals the constant run at the mean temperature.
    const auto qual = makeQual();
    RampEngine engine(qual, ones());
    engine.addInterval(flat(345.0), flat(0.4), 1.0, 4.0, 1.0);
    engine.addInterval(flat(385.0), flat(0.4), 1.0, 4.0, 1.0);

    const auto at_mean =
        steadyFit(qual, ones(), flat(365.0), flat(0.4), 1.0, 4.0);
    EXPECT_NEAR(engine.report().mechanismFit(Mechanism::TC),
                at_mean.mechanismFit(Mechanism::TC), 1e-9);
}

TEST(RampEngine, AvgTempReported)
{
    RampEngine engine(makeQual(), ones());
    engine.addInterval(flat(350.0), flat(0.4), 1.0, 4.0, 1.0);
    engine.addInterval(flat(370.0), flat(0.4), 1.0, 4.0, 3.0);
    const auto report = engine.report();
    for (auto s : allStructures())
        EXPECT_NEAR(report.avg_temp_k[sim::structureIndex(s)], 365.0,
                    1e-9);
    EXPECT_NEAR(report.total_time_s, 4.0, 1e-12);
}

TEST(RampEngine, ResetClears)
{
    RampEngine engine(makeQual(), ones());
    engine.addInterval(flat(370.0), flat(0.4), 1.0, 4.0, 1.0);
    EXPECT_EQ(engine.intervals(), 1u);
    engine.reset();
    EXPECT_EQ(engine.intervals(), 0u);
    EXPECT_EQ(engine.report().totalFit(), 0.0);
}

TEST(RampEngine, GatedStructuresContributeLess)
{
    const auto qual = makeQual();
    PerStructure<double> half = flat(0.5);
    const auto full = steadyFit(qual, ones(), flat(370.0), flat(0.4),
                                1.0, 4.0);
    const auto gated = steadyFit(qual, half, flat(370.0), flat(0.4),
                                 1.0, 4.0);
    EXPECT_LT(gated.totalFit(), full.totalFit());
    // SM and TC are mechanical: unaffected by gating.
    EXPECT_NEAR(gated.mechanismFit(Mechanism::SM),
                full.mechanismFit(Mechanism::SM), 1e-9);
    EXPECT_NEAR(gated.mechanismFit(Mechanism::EM),
                0.5 * full.mechanismFit(Mechanism::EM), 1e-9);
}

TEST(RampEngineDeath, BadDurationIsFatal)
{
    RampEngine engine(makeQual(), ones());
    EXPECT_EXIT(
        engine.addInterval(flat(370.0), flat(0.4), 1.0, 4.0, 0.0),
        testing::ExitedWithCode(1), "duration");
}

TEST(RampEngineDeath, BadOnFractionIsFatal)
{
    EXPECT_EXIT(RampEngine(makeQual(), flat(1.5)),
                testing::ExitedWithCode(1), "fraction");
}

} // namespace
} // namespace ramp::core
