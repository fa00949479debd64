/**
 * @file
 * Tests for the closed-loop transient runner: budget convergence for
 * DRM, temperature capping for DTM, the pinned baseline, and golden
 * level walks pinned bit for bit.
 */

#include <gtest/gtest.h>

#include <vector>

#include "drm/transient.hh"

namespace ramp::drm {
namespace {

core::Qualification
makeQual(double t_qual)
{
    core::QualificationSpec s;
    s.t_qual_k = t_qual;
    s.alpha_qual.fill(0.5);
    return core::Qualification(s);
}

TransientParams
fastParams()
{
    TransientParams p;
    p.interval_uops = 20'000;
    p.warmup_uops = 60'000;
    p.num_intervals = 60;
    p.represented_time_s = 0.5; // let the thermal state move
    return p;
}

TEST(Transient, PinnedRunStaysAtBaseLevel)
{
    const TransientRunner runner(fastParams());
    const auto res = runner.run(workload::findApp("gzip"),
                                makeQual(380.0), Policy::None);
    ASSERT_EQ(res.trace.size(), 60u);
    for (const auto &s : res.trace) {
        EXPECT_DOUBLE_EQ(s.frequency_ghz, 4.0);
        EXPECT_DOUBLE_EQ(s.voltage_v, 1.0);
    }
    EXPECT_EQ(res.level_transitions, 0u);
    EXPECT_GT(res.avg_uops_per_second, 1e8);
}

TEST(Transient, TraceValuesAreSane)
{
    const TransientRunner runner(fastParams());
    const auto res = runner.run(workload::findApp("gzip"),
                                makeQual(380.0), Policy::None);
    for (const auto &s : res.trace) {
        EXPECT_GT(s.ipc, 0.0);
        EXPECT_GT(s.max_temp_k, 320.0);
        EXPECT_LT(s.max_temp_k, 440.0);
        EXPECT_GT(s.total_power_w, 5.0);
        EXPECT_LT(s.total_power_w, 60.0);
        EXPECT_GT(s.avg_fit, 0.0);
    }
}

TEST(Transient, DrmThrottlesUnderDesignedPart)
{
    // Qualified far below the app's natural operating point: the
    // pinned run blows the budget; the DRM controller must bring the
    // lifetime-average FIT down toward the target.
    const TransientRunner runner(fastParams());
    const auto &app = workload::findApp("MP3dec");
    const auto qual = makeQual(355.0);

    const auto pinned = runner.run(app, qual, Policy::None);
    const auto drm = runner.run(app, qual, Policy::Drm);

    EXPECT_GT(pinned.final_avg_fit, 4000.0);
    EXPECT_LT(drm.final_avg_fit, pinned.final_avg_fit);
    EXPECT_GT(drm.level_transitions, 0u);
    // Throttling costs performance.
    EXPECT_LT(drm.avg_uops_per_second,
              pinned.avg_uops_per_second + 1.0);
}

TEST(Transient, DrmExploitsOverDesignedPart)
{
    const TransientRunner runner(fastParams());
    const auto &app = workload::findApp("twolf"); // cool app
    const auto qual = makeQual(400.0);

    const auto drm = runner.run(app, qual, Policy::Drm);
    // Plenty of budget: the controller climbs above the base rung.
    bool climbed = false;
    for (const auto &s : drm.trace)
        climbed |= s.frequency_ghz > 4.0;
    EXPECT_TRUE(climbed);
    EXPECT_LT(drm.final_avg_fit, 4000.0 * 1.1);
}

TEST(Transient, DtmCapsTemperature)
{
    TransientParams p = fastParams();
    p.dtm.t_design_k = 365.0;
    const TransientRunner runner(p);
    const auto &app = workload::findApp("MPGdec"); // hot app
    const auto qual = makeQual(380.0);

    const auto pinned = runner.run(app, qual, Policy::None);
    const auto dtm = runner.run(app, qual, Policy::Dtm);

    EXPECT_GT(pinned.max_temp_seen_k, 365.0);
    // DTM reacts: far fewer over-limit intervals than pinned (the
    // first intervals may still overshoot while it steps down).
    EXPECT_LT(dtm.thermalViolations(365.0),
              pinned.thermalViolations(365.0));
    EXPECT_GT(dtm.level_transitions, 0u);
}

TEST(Transient, DeterministicAcrossRuns)
{
    const TransientRunner runner(fastParams());
    const auto &app = workload::findApp("ammp");
    const auto qual = makeQual(370.0);
    const auto a = runner.run(app, qual, Policy::Drm);
    const auto b = runner.run(app, qual, Policy::Drm);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    EXPECT_DOUBLE_EQ(a.final_avg_fit, b.final_avg_fit);
    for (std::size_t i = 0; i < a.trace.size(); ++i)
        EXPECT_EQ(a.trace[i].level, b.trace[i].level);
}

/** A short closed-loop run's level walk and end-of-run figures,
 *  pinned bit for bit (hex floats). */
struct GoldenRun
{
    std::vector<std::size_t> levels;
    std::uint64_t transitions;
    double final_avg_fit;
    double max_temp_seen_k;
    double avg_uops_per_second;
};

void
expectGolden(const TransientResult &res, const GoldenRun &golden)
{
    std::vector<std::size_t> levels;
    for (const auto &s : res.trace)
        levels.push_back(s.level);
    EXPECT_EQ(levels, golden.levels);
    EXPECT_EQ(res.level_transitions, golden.transitions);
    EXPECT_EQ(res.final_avg_fit, golden.final_avg_fit);
    EXPECT_EQ(res.max_temp_seen_k, golden.max_temp_seen_k);
    EXPECT_EQ(res.avg_uops_per_second, golden.avg_uops_per_second);
}

TransientParams
goldenParams()
{
    TransientParams p = fastParams();
    p.num_intervals = 40;
    return p;
}

TEST(TransientGolden, DrmWalkIsPinned)
{
    // Steps down off the base rung, climbs above it on banked slack,
    // then settles back below it.
    const TransientRunner runner(goldenParams());
    const auto res = runner.run(workload::findApp("MP3dec"),
                                makeQual(370.0), Policy::Drm);
    expectGolden(res,
                 {{6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
                   6, 6, 6, 6, 7, 7, 7, 7, 6, 6, 6, 6, 5, 5,
                   5, 5, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3},
                  7,
                  0x1.de581a5782fa4p+11,
                  0x1.8e8a8d24c0909p+8,
                  0x1.b3deadd8630fep+33});
}

TEST(TransientGolden, DtmWalkIsPinned)
{
    // Throttles to the bottom rung, climbs one rung once it cools
    // below the guard band, and is pushed back down.
    TransientParams p = goldenParams();
    p.dtm.t_design_k = 360.0;
    const TransientRunner runner(p);
    const auto res = runner.run(workload::findApp("MP3dec"),
                                makeQual(380.0), Policy::Dtm);
    expectGolden(res,
                 {{6, 5, 5, 5, 4, 4, 4, 3, 3, 3, 2, 2, 2, 1,
                   1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0},
                  8,
                  0x1.bc33a8191e038p+9,
                  0x1.84eefa3271bb9p+8,
                  0x1.4be8b5cbda1aap+33});
}

TEST(TransientDeath, RejectsBadParams)
{
    TransientParams p = fastParams();
    p.num_intervals = 0;
    EXPECT_EXIT(TransientRunner{p}, testing::ExitedWithCode(1),
                "intervals");
    p = fastParams();
    p.represented_time_s = 0.0;
    EXPECT_EXIT(TransientRunner{p}, testing::ExitedWithCode(1),
                "represented_time");
}

} // namespace
} // namespace ramp::drm
