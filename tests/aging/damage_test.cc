/**
 * @file
 * Damage-integrator tests against the model's anchors: a chip held
 * at exactly its qualification conditions for one service life must
 * consume exactly one lifetime; damage is monotone in time and in
 * stress; and the pair fan must be bit-identical serial vs pooled.
 */

#include <vector>

#include <gtest/gtest.h>

#include "aging/damage.hh"
#include "core/lifetime.hh"
#include "util/constants.hh"
#include "util/thread_pool.hh"

namespace ramp {
namespace aging {
namespace {

using sim::allStructures;
using sim::structureIndex;

core::QualificationSpec
testSpec()
{
    core::QualificationSpec spec;
    spec.t_qual_k = 345.0;
    for (auto s : allStructures())
        spec.alpha_qual[structureIndex(s)] = 0.5;
    return spec;
}

sim::PerStructure<double>
uniform(double v)
{
    sim::PerStructure<double> out{};
    out.fill(v);
    return out;
}

/** An epoch at the qualification point of @p spec. */
StressEpoch
qualEpoch(const core::QualificationSpec &spec, double duration_s)
{
    StressEpoch e;
    e.temps_k = uniform(spec.t_qual_k);
    e.activity = spec.alpha_qual;
    e.voltage_v = spec.v_qual_v;
    e.frequency_ghz = spec.f_qual_ghz;
    e.duration_s = duration_s;
    return e;
}

TEST(DamageIntegrator, OneServiceLifeAtQualConsumesOneLifetime)
{
    const core::QualificationSpec spec = testSpec();
    const core::Qualification qual(spec);
    DamageParams params;
    DamageIntegrator integ(qual, uniform(1.0), params);

    // fit(qual conditions) == allocation for every pair, so each
    // pair's Miner's-rule rate is exactly 1 / serviceLifeHours.
    const double life_s =
        core::serviceLifeHours(params.service_life_years) * 3600.0;
    integ.integrate({qualEpoch(spec, life_s)}, nullptr);

    EXPECT_NEAR(integ.state().totalDamage(), 1.0, 1e-9);
    EXPECT_NEAR(integ.state().maxPairDamage(), 1.0, 1e-9);
    EXPECT_NEAR(integ.state().age_hours,
                core::serviceLifeHours(params.service_life_years),
                1e-6);
}

TEST(DamageIntegrator, DamageIsMonotoneInTime)
{
    const core::QualificationSpec spec = testSpec();
    DamageIntegrator integ(core::Qualification(spec), uniform(1.0));
    double last = 0.0;
    for (int i = 0; i < 8; ++i) {
        StressEpoch e = qualEpoch(spec, 30.0 * 24.0 * 3600.0);
        // Vary the stress; damage must still only move up.
        e.temps_k = uniform(330.0 + 5.0 * i);
        e.activity = uniform(0.1 * (i % 3));
        integ.integrate({e}, nullptr);
        const double now = integ.state().totalDamage();
        EXPECT_GT(now, last);
        last = now;
    }
}

TEST(DamageIntegrator, HotterEpochsConsumeMore)
{
    const core::QualificationSpec spec = testSpec();
    const double month_s = 30.0 * 24.0 * 3600.0;

    DamageIntegrator cool(core::Qualification(spec), uniform(1.0));
    StressEpoch e = qualEpoch(spec, month_s);
    e.temps_k = uniform(340.0);
    cool.integrate({e}, nullptr);

    DamageIntegrator hot(core::Qualification(spec), uniform(1.0));
    e.temps_k = uniform(360.0);
    hot.integrate({e}, nullptr);

    EXPECT_GT(hot.state().totalDamage(),
              cool.state().totalDamage());
}

TEST(DamageIntegrator, SerialAndPooledIntegrationAreBitIdentical)
{
    const core::QualificationSpec spec = testSpec();
    // A batch of varied epochs, so per-pair accumulation order
    // would show up as a bit difference if the fan were over epochs.
    std::vector<StressEpoch> epochs;
    for (int i = 0; i < 12; ++i) {
        StressEpoch e = qualEpoch(spec, 3600.0 * (1 + i));
        e.temps_k = uniform(325.0 + 3.7 * i);
        e.activity = uniform(0.05 + 0.07 * i);
        e.voltage_v = 0.9 + 0.01 * i;
        e.frequency_ghz = 3.0 + 0.1 * i;
        epochs.push_back(e);
    }

    DamageIntegrator serial(core::Qualification(spec),
                            uniform(1.0));
    serial.integrate(epochs, nullptr);

    util::ThreadPool pool(2);
    DamageIntegrator pooled(core::Qualification(spec),
                            uniform(1.0));
    pooled.integrate(epochs, &pool);

    // Exact double equality, not EXPECT_NEAR: the batch fan is over
    // pairs with per-pair serial epoch order, so thread count must
    // not change a single bit.
    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        for (std::size_t mi = 0; mi < core::num_mechanisms; ++mi)
            EXPECT_EQ(serial.state().damage[si][mi],
                      pooled.state().damage[si][mi]);
        EXPECT_EQ(serial.state().em_jt_hours[si],
                  pooled.state().em_jt_hours[si]);
        EXPECT_EQ(serial.state().tddb_vt_hours[si],
                  pooled.state().tddb_vt_hours[si]);
        EXPECT_EQ(serial.state().tc_cycles[si],
                  pooled.state().tc_cycles[si]);
    }
    EXPECT_EQ(serial.state().age_hours, pooled.state().age_hours);
}

TEST(DamageIntegrator, SetStateResumesWhereAHistoryLeftOff)
{
    const core::QualificationSpec spec = testSpec();
    const double week_s = 7.0 * 24.0 * 3600.0;

    DamageIntegrator straight(core::Qualification(spec),
                              uniform(1.0));
    straight.integrate({qualEpoch(spec, week_s)}, nullptr);
    straight.integrate({qualEpoch(spec, week_s)}, nullptr);

    DamageIntegrator first(core::Qualification(spec), uniform(1.0));
    first.integrate({qualEpoch(spec, week_s)}, nullptr);
    DamageIntegrator resumed(core::Qualification(spec),
                             uniform(1.0));
    resumed.setState(first.state());
    resumed.integrate({qualEpoch(spec, week_s)}, nullptr);

    EXPECT_EQ(straight.state().totalDamage(),
              resumed.state().totalDamage());
    EXPECT_EQ(straight.state().age_hours,
              resumed.state().age_hours);
}

} // namespace
} // namespace aging
} // namespace ramp
