/**
 * @file
 * Tests for reliability qualification (paper Section 3.7): budget
 * allocation, the anchor invariant (FIT at qualification conditions
 * equals the allocation), and power-gating effects.
 */

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>

#include <gtest/gtest.h>

#include "core/qualification.hh"
#include "util/random.hh"

namespace ramp::core {
namespace {

using sim::allStructures;
using sim::StructureId;
using sim::structureIndex;

QualificationSpec
spec(double t_qual = 400.0)
{
    QualificationSpec s;
    s.t_qual_k = t_qual;
    s.alpha_qual.fill(0.5);
    return s;
}

TEST(Qualification, BudgetSplitsEvenlyAcrossMechanisms)
{
    const Qualification q(spec());
    for (auto m : allMechanisms()) {
        double sum = 0.0;
        for (auto s : allStructures())
            sum += q.allocation(s, m);
        EXPECT_NEAR(sum, 1000.0, 1e-9); // 4000 / 4 mechanisms
    }
}

TEST(Qualification, BudgetSplitsByAreaAcrossStructures)
{
    const Qualification q(spec());
    const double total_area = sim::totalCoreArea();
    for (auto s : allStructures()) {
        const double share = sim::structureArea(s) / total_area;
        EXPECT_NEAR(q.allocation(s, Mechanism::EM), 1000.0 * share,
                    1e-9);
    }
}

TEST(Qualification, TotalAllocationIsTarget)
{
    const Qualification q(spec());
    double total = 0.0;
    for (auto s : allStructures())
        for (auto m : allMechanisms())
            total += q.allocation(s, m);
    EXPECT_NEAR(total, 4000.0, 1e-9);
}

TEST(Qualification, FitAtQualConditionsEqualsAllocation)
{
    // The anchor invariant: running exactly at the qualification
    // point consumes exactly the allocated budget.
    const Qualification q(spec(385.0));
    for (auto s : allStructures()) {
        const auto qc = q.qualConditions(s);
        for (auto m : allMechanisms())
            EXPECT_NEAR(q.fit(s, m, qc), q.allocation(s, m), 1e-9)
                << sim::structureName(s) << "/" << mechanismName(m);
    }
}

TEST(Qualification, TotalFitAtQualPointIsTarget)
{
    const Qualification q(spec(370.0));
    double total = 0.0;
    for (auto s : allStructures())
        for (auto m : allMechanisms())
            total += q.fit(s, m, q.qualConditions(s));
    EXPECT_NEAR(total, 4000.0, 1e-6);
}

TEST(Qualification, CoolerThanQualMeansUnderBudget)
{
    const Qualification q(spec(400.0));
    for (auto s : allStructures()) {
        OperatingConditions c = q.qualConditions(s);
        c.temp_k = 360.0;
        for (auto m : allMechanisms())
            EXPECT_LT(q.fit(s, m, c), q.allocation(s, m));
    }
}

TEST(Qualification, HotterThanQualMeansOverBudget)
{
    const Qualification q(spec(360.0));
    for (auto s : allStructures()) {
        OperatingConditions c = q.qualConditions(s);
        c.temp_k = 395.0;
        for (auto m : allMechanisms())
            EXPECT_GT(q.fit(s, m, c), q.allocation(s, m));
    }
}

TEST(Qualification, CheaperQualificationShrinksHeadroom)
{
    // The same actual conditions consume more of the budget on a
    // processor qualified at a lower (cheaper) T_qual.
    const Qualification expensive(spec(400.0));
    const Qualification cheap(spec(345.0));
    OperatingConditions c;
    c.temp_k = 370.0;
    c.activity_af = 0.5;
    const auto s = StructureId::IntAlu;
    for (auto m : allMechanisms())
        EXPECT_GT(cheap.fit(s, m, c), expensive.fit(s, m, c));
}

TEST(Qualification, PowerGatingScalesEmAndTddbOnly)
{
    const Qualification q(spec());
    OperatingConditions c;
    c.temp_k = 370.0;
    c.activity_af = 0.4;
    const auto s = StructureId::Fpu;
    EXPECT_NEAR(q.fit(s, Mechanism::EM, c, 0.25),
                0.25 * q.fit(s, Mechanism::EM, c, 1.0), 1e-12);
    EXPECT_NEAR(q.fit(s, Mechanism::TDDB, c, 0.25),
                0.25 * q.fit(s, Mechanism::TDDB, c, 1.0), 1e-12);
    EXPECT_NEAR(q.fit(s, Mechanism::SM, c, 0.25),
                q.fit(s, Mechanism::SM, c, 1.0), 1e-12);
    EXPECT_NEAR(q.fit(s, Mechanism::TC, c, 0.25),
                q.fit(s, Mechanism::TC, c, 1.0), 1e-12);
}

TEST(Qualification, SpecIsPreserved)
{
    QualificationSpec s = spec(377.0);
    s.target_fit = 2000.0;
    const Qualification q(s);
    EXPECT_DOUBLE_EQ(q.spec().t_qual_k, 377.0);
    EXPECT_DOUBLE_EQ(q.spec().target_fit, 2000.0);
    double total = 0.0;
    for (auto st : allStructures())
        for (auto m : allMechanisms())
            total += q.allocation(st, m);
    EXPECT_NEAR(total, 2000.0, 1e-9);
}

/** A random pick from @p values, or a uniform draw in [lo, hi). */
double
pick(util::Rng &rng, std::initializer_list<double> values, double lo,
     double hi)
{
    const std::size_t n = values.size();
    const std::size_t k = rng.below(2 * n);
    return k < n ? values.begin()[k] : rng.uniform(lo, hi);
}

TEST(Qualification, EarlyExitFeasibilityAgreesWithTheFullPrice)
{
    // fitWithin(...) <= limit exactly when price(...).totalFit() <=
    // limit, and then the two are the same bits -- on random bases
    // and temperatures with NaN, infinite, signed-zero and huge
    // entries, against limits around the total and at the extremes.
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    util::Rng rng(97);
    std::size_t feasible = 0;
    std::size_t early = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        const Qualification qual(spec(rng.uniform(330.0, 410.0)));
        FitBasis basis;
        for (auto &rates : basis.log_rate)
            for (double &lr : rates)
                lr = trial % 4 == 0
                         ? pick(rng, {nan, inf, -inf, 0.0, -0.0, 700.0,
                                      -745.0, 1e308},
                                -3.0, 3.0)
                         : rng.uniform(-3.0, 3.0);
        for (double &on : basis.on_fraction)
            on = trial % 4 == 1 ? pick(rng, {0.0, -0.0, 1.0, nan}, 0.0, 1.0)
                                : rng.uniform(0.0, 1.0);
        sim::PerStructure<double> temps_k;
        for (double &t : temps_k)
            t = trial % 4 == 2
                    ? pick(rng, {nan, inf, 1e-300, 1e300, 250.0, 300.0}, 300.0,
                           480.0)
                    : rng.uniform(300.0, 480.0);

        const double total = qual.price(basis, temps_k).totalFit();
        for (double limit :
             {total, std::nextafter(total, inf), std::nextafter(total, -inf),
              total * rng.uniform(0.0, 2.0), nan, 0.0, -0.0, -1.0, 1e308,
              inf, -inf, qual.spec().target_fit}) {
            const double got = qual.fitWithin(basis, temps_k, limit);
            ASSERT_EQ(got <= limit, total <= limit)
                << "trial " << trial << ": total " << total << ", limit "
                << limit << ", got " << got;
            if (total <= limit) {
                ++feasible;
                EXPECT_EQ(std::memcmp(&got, &total, sizeof got), 0)
                    << "trial " << trial;
            } else if (std::memcmp(&got, &total, sizeof got) != 0) {
                ++early;
            }
        }
    }
    // Both outcomes, and real early exits, were exercised.
    EXPECT_GT(feasible, 1000u);
    EXPECT_GT(early, 1000u);
}

TEST(QualificationDeath, RejectsBadSpecs)
{
    QualificationSpec s = spec();
    s.target_fit = 0.0;
    EXPECT_EXIT(Qualification{s}, testing::ExitedWithCode(1),
                "target FIT");

    s = spec();
    s.t_qual_k = 300.0; // below ambient
    EXPECT_EXIT(Qualification{s}, testing::ExitedWithCode(1),
                "ambient");

    s = spec();
    s.v_qual_v = 0.0;
    EXPECT_EXIT(Qualification{s}, testing::ExitedWithCode(1),
                "voltage");
}

} // namespace
} // namespace ramp::core
