/**
 * @file
 * The batched leakage/thermal fixed point against a reference copy of
 * the scalar loop it replaced: every lane of a batch must come out --
 * temperatures, sink, power, iterations, residual, convergence,
 * errors and counters -- bit for bit what the scalar loop gives it
 * alone, whatever the batch size and whatever its neighbours do.
 */

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluator.hh"
#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/telemetry.hh"

namespace ramp::core {
namespace {

using sim::num_structures;
using sim::PerStructure;

/** What the scalar loop also reports through counters. */
struct ReferenceFlags
{
    bool near_limit = false;
    bool clamped = false;
};

/**
 * The scalar fixed point as it was before batching (one problem, one
 * steady solve per iteration), kept verbatim apart from reporting its
 * counter events in @p flags instead of counting them.
 */
util::Result<ThermalFixedPoint>
referenceConverge(const thermal::ThermalModel &network,
                  const std::vector<power::PowerModel> &pmodels,
                  const std::vector<PerStructure<double>> &dynamic_w,
                  const EvalParams &params, ReferenceFlags &flags)
{
    constexpr double leak_temp_cap = 450.0;
    const auto leakage = [&](std::size_t tile,
                             const PerStructure<double> &temps_k) {
        PerStructure<double> leak_temps = temps_k;
        for (auto &t : leak_temps)
            t = std::min(t, leak_temp_cap);
        if (!params.leakage_feedback)
            leak_temps.fill(params.power_params.leakage_t_ref);
        return pmodels[tile].leakagePower(leak_temps);
    };

    const std::size_t tiles = network.numTiles();
    ThermalFixedPoint fp;
    fp.temps_k.resize(tiles);
    for (auto &t : fp.temps_k)
        t.fill(params.thermal_params.ambient_k + 30.0);

    std::vector<PerStructure<double>> total(tiles);
    thermal::SteadyTemps steady{};
    for (std::uint32_t it = 0; it < params.max_iterations; ++it) {
        for (std::size_t c = 0; c < tiles; ++c) {
            const auto leak = leakage(c, fp.temps_k[c]);
            for (std::size_t i = 0; i < num_structures; ++i)
                total[c][i] = dynamic_w[c][i] + leak[i];
        }
        auto solve = network.trySteadyState(total);
        if (!solve)
            return solve.error();
        steady = std::move(solve.value());

        double worst = 0.0;
        for (std::size_t c = 0; c < tiles; ++c) {
            PerStructure<double> &temps = fp.temps_k[c];
            const double *solved_k = &steady.block_k[c * num_structures];
            for (std::size_t i = 0; i < num_structures; ++i) {
                worst = std::max(worst, std::fabs(solved_k[i] - temps[i]));
                temps[i] = 0.5 * temps[i] + 0.5 * solved_k[i];
            }
        }
        ++fp.iterations;
        fp.residual_k = worst;
        if (worst < params.tolerance_k)
            break;
    }
    fp.converged = fp.residual_k < params.tolerance_k;
    fp.sink_k = steady.sink_k;
    flags.near_limit = 10 * std::uint64_t{fp.iterations} >
                       9 * std::uint64_t{params.max_iterations};

    bool clamped = false;
    for (std::size_t c = 0; c < tiles; ++c) {
        fp.power.push_back({dynamic_w[c], leakage(c, fp.temps_k[c])});
        for (double t : fp.temps_k[c]) {
            if (!std::isfinite(t))
                return util::RampError{
                    util::ErrorCode::NonFiniteValue,
                    util::cat("thermal fixed point produced non-finite "
                              "temperatures on core ",
                              c)};
            clamped = clamped ||
                      (params.leakage_feedback && t > leak_temp_cap);
        }
    }
    flags.clamped = clamped;
    return fp;
}

/** One problem: a power model and dynamic map per tile. */
struct Problem
{
    std::vector<power::PowerModel> pmodels;
    std::vector<PerStructure<double>> dyn;
};

/**
 * Sixteen problems on @p tiles tiles: ordinary points at random V/f
 * and activity, plus one each that engages the leakage clamp, carries
 * negative power, carries NaN power, overflows to non-finite
 * temperatures, runs hot enough to need many iterations, and draws no
 * power at all.
 */
std::vector<Problem>
problems(std::size_t tiles, const EvalParams &params)
{
    util::Rng rng(71 + tiles);
    std::vector<Problem> out(16);
    for (std::size_t l = 0; l < out.size(); ++l) {
        for (std::size_t c = 0; c < tiles; ++c) {
            sim::MachineConfig cfg = sim::baseMachine();
            cfg.frequency_ghz = rng.uniform(2.5, 5.0);
            cfg.voltage_v = rng.uniform(0.8, 1.2);
            out[l].pmodels.emplace_back(cfg, params.power_params);
            sim::ActivitySample sample;
            for (auto &a : sample.activity)
                a = rng.uniform(0.0, 0.6);
            auto dyn = out[l].pmodels.back().dynamicPower(sample);
            const double scale = l == 10   ? 40.0
                                 : l == 14 ? 6.0
                                 : l == 15 ? 0.0
                                           : rng.uniform(0.5, 3.0);
            for (auto &p : dyn)
                p *= scale;
            if (l == 11)
                dyn[3] = -1.0;
            if (l == 12)
                dyn[c == 0 ? 7 : 2] = std::nan("");
            if (l == 13)
                dyn.fill(1e308);
            out[l].dyn.push_back(dyn);
        }
    }
    return out;
}

std::uint64_t
counterValue(const char *name)
{
    return telemetry::Registry::instance().snapshot().counter(name);
}

bool
sameBits(const void *a, const void *b, std::size_t bytes)
{
    return std::memcmp(a, b, bytes) == 0;
}

void
expectSameFixedPoint(const util::Result<ThermalFixedPoint> &got,
                     const util::Result<ThermalFixedPoint> &want,
                     const std::string &where)
{
    ASSERT_EQ(got.ok(), want.ok()) << where;
    if (!want.ok()) {
        EXPECT_EQ(got.error().code, want.error().code) << where;
        EXPECT_EQ(got.error().message, want.error().message) << where;
        return;
    }
    const ThermalFixedPoint &g = got.value();
    const ThermalFixedPoint &w = want.value();
    ASSERT_EQ(g.temps_k.size(), w.temps_k.size()) << where;
    ASSERT_EQ(g.power.size(), w.power.size()) << where;
    for (std::size_t c = 0; c < w.temps_k.size(); ++c) {
        EXPECT_TRUE(sameBits(&g.temps_k[c], &w.temps_k[c],
                             sizeof w.temps_k[c]))
            << where << " tile " << c;
        EXPECT_TRUE(sameBits(&g.power[c].dynamic_w, &w.power[c].dynamic_w,
                             sizeof w.power[c].dynamic_w))
            << where << " tile " << c;
        EXPECT_TRUE(sameBits(&g.power[c].leakage_w, &w.power[c].leakage_w,
                             sizeof w.power[c].leakage_w))
            << where << " tile " << c;
    }
    EXPECT_TRUE(sameBits(&g.sink_k, &w.sink_k, sizeof w.sink_k)) << where;
    EXPECT_EQ(g.iterations, w.iterations) << where;
    EXPECT_TRUE(sameBits(&g.residual_k, &w.residual_k, sizeof w.residual_k))
        << where;
    EXPECT_EQ(g.converged, w.converged) << where;
}

/** Every batch size 1..16, with the odd lanes at shifting positions,
 *  matches the reference lane by lane, counters included. */
void
expectBatchesMatchReference(const thermal::ThermalModel &network,
                            const EvalParams &params,
                            const std::string &label)
{
    const auto pool = problems(network.numTiles(), params);
    for (std::size_t k = 1; k <= pool.size(); ++k) {
        std::vector<const Problem *> batch;
        for (std::size_t j = 0; j < k; ++j)
            batch.push_back(&pool[(5 * k + j) % pool.size()]);

        const std::uint64_t solves0 = counterValue("thermal.steady_solves");
        std::vector<util::Result<ThermalFixedPoint>> want;
        std::uint64_t want_near = 0;
        std::uint64_t want_clamped = 0;
        for (const Problem *p : batch) {
            ReferenceFlags flags;
            want.push_back(referenceConverge(network, p->pmodels, p->dyn,
                                             params, flags));
            want_near += flags.near_limit ? 1 : 0;
            want_clamped += want.back().ok() && flags.clamped ? 1 : 0;
        }
        const std::uint64_t want_solves =
            counterValue("thermal.steady_solves") - solves0;

        std::vector<LeakageLane> lanes;
        for (const Problem *p : batch)
            lanes.push_back({p->pmodels, p->dyn});
        const std::uint64_t near0 = counterValue("evaluator.near_limit");
        const std::uint64_t clamped0 =
            counterValue("evaluator.leak_clamped");
        const std::uint64_t solves1 = counterValue("thermal.steady_solves");
        const auto got = tryConvergeLeakage(network, lanes, params);
        ASSERT_EQ(got.size(), k);
        for (std::size_t j = 0; j < k; ++j)
            expectSameFixedPoint(got[j], want[j],
                                 label + ", K " + std::to_string(k) +
                                     ", lane " + std::to_string(j));
        EXPECT_EQ(counterValue("thermal.steady_solves") - solves1,
                  want_solves)
            << label << ", K " << k;
        EXPECT_EQ(counterValue("evaluator.near_limit") - near0, want_near)
            << label << ", K " << k;
        EXPECT_EQ(counterValue("evaluator.leak_clamped") - clamped0,
                  want_clamped)
            << label << ", K " << k;
    }
}

TEST(BatchedFixedPoint, SingleCoreLanesMatchTheScalarLoop)
{
    const thermal::ThermalModel network;
    EvalParams defaults;
    expectBatchesMatchReference(network, defaults, "default limit");

    EvalParams tight; // Ordinary lanes stop near or at the limit.
    tight.max_iterations = 12;
    expectBatchesMatchReference(network, tight, "limit 12");

    EvalParams short_limit; // Every running lane hits the limit.
    short_limit.max_iterations = 3;
    expectBatchesMatchReference(network, short_limit, "limit 3");

    EvalParams no_feedback;
    no_feedback.leakage_feedback = false;
    expectBatchesMatchReference(network, no_feedback, "no feedback");
}

TEST(BatchedFixedPoint, TwoTileLanesMatchTheScalarLoop)
{
    const double edge = thermal::Floorplan().dieSize();
    const thermal::ThermalModel network({{0.0, 0.0}, {edge, 0.0}},
                                        thermal::ThermalParams{});
    expectBatchesMatchReference(network, EvalParams{}, "two tiles");
}

TEST(BatchedFixedPoint, OddLanesAreWhatTheyClaim)
{
    // The problem set really exercises the paths it names.
    const thermal::ThermalModel network;
    EvalParams params;
    const auto pool = problems(1, params);
    std::vector<LeakageLane> lanes;
    for (const Problem &p : pool)
        lanes.push_back({p.pmodels, p.dyn});
    const auto got = tryConvergeLeakage(network, lanes, params);
    ASSERT_TRUE(got[10].ok());
    EXPECT_GT(sim::maxOf(got[10].value().temps_k[0]), 450.0);
    ASSERT_FALSE(got[11].ok());
    EXPECT_EQ(got[11].error().code, util::ErrorCode::InvalidInput);
    ASSERT_FALSE(got[12].ok());
    EXPECT_EQ(got[12].error().code, util::ErrorCode::NonFiniteValue);
    EXPECT_FALSE(got[13].ok());
    for (std::size_t l : {0u, 1u, 14u, 15u}) {
        ASSERT_TRUE(got[l].ok()) << l;
        EXPECT_TRUE(got[l].value().converged) << l;
    }
    params.max_iterations = 12;
    const auto tight = tryConvergeLeakage(network, lanes, params);
    ASSERT_TRUE(tight[14].ok());
    EXPECT_FALSE(tight[14].value().converged);
}

/** Evaluator counters a batch must move exactly as its singles do. */
struct EvalCounters
{
    std::uint64_t converge_calls, non_converged, iterations_total;
    double iterations_sum;

    static EvalCounters
    now()
    {
        const auto snap = telemetry::Registry::instance().snapshot();
        const auto h = snap.histograms.find("evaluator.iterations");
        const bool seen = h != snap.histograms.end();
        return {snap.counter("evaluator.converge_calls"),
                snap.counter("evaluator.non_converged"),
                seen ? h->second.total : 0, seen ? h->second.sum : 0.0};
    }

    EvalCounters
    since(const EvalCounters &before) const
    {
        return {converge_calls - before.converge_calls,
                non_converged - before.non_converged,
                iterations_total - before.iterations_total,
                iterations_sum - before.iterations_sum};
    }
};

TEST(BatchedFixedPoint, EvaluatorBatchMatchesSingles)
{
    // Points converged as a batch equal the same points converged one
    // by one -- operating points, errors, the forced-non-convergence
    // fault (decided per point) and the evaluator's counters.
    fault::FaultPlan plan;
    plan.spec(fault::FaultKind::NonConvergence).rate = 0.5;
    fault::installFaultPlan(plan);

    const Evaluator evaluator;
    util::Rng rng(83);
    std::vector<sim::MachineConfig> cfgs;
    std::vector<Measurement> measured(16);
    for (std::size_t i = 0; i < measured.size(); ++i) {
        sim::MachineConfig cfg = sim::baseMachine();
        cfg.frequency_ghz = rng.uniform(2.5, 5.0);
        cfg.voltage_v = rng.uniform(0.8, 1.2);
        cfgs.push_back(cfg);
        Measurement &m = measured[i];
        m.activity.cycles = 1000 + i;
        m.activity.retired = 800 + 3 * i;
        for (auto &a : m.activity.activity)
            a = rng.uniform(0.0, 0.6);
        if (i == 6)
            m.activity.activity[2] = std::nan("");
        m.stats.cycles = 2000 + i;
        m.l1d_miss_ratio = rng.uniform(0.0, 0.2);
        m.l2_miss_ratio = rng.uniform(0.0, 0.5);
    }
    std::vector<const Measurement *> ptrs;
    for (const auto &m : measured)
        ptrs.push_back(&m);

    const auto singles0 = EvalCounters::now();
    std::vector<util::Result<OperatingPoint>> want;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        auto op = evaluator.tryConvergeThermal(
            cfgs[i], measured[i].activity, measured[i].stats);
        if (op) {
            op.value().l1d_miss_ratio = measured[i].l1d_miss_ratio;
            op.value().l1i_miss_ratio = measured[i].l1i_miss_ratio;
            op.value().l2_miss_ratio = measured[i].l2_miss_ratio;
        }
        want.push_back(std::move(op));
    }
    const auto singles = EvalCounters::now().since(singles0);

    const auto batch0 = EvalCounters::now();
    const auto got = evaluator.tryConvergeThermal(cfgs, ptrs);
    const auto batch = EvalCounters::now().since(batch0);
    fault::clearFaultPlan();

    ASSERT_EQ(got.size(), want.size());
    std::size_t forced = 0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].ok(), want[i].ok()) << i;
        if (!want[i].ok()) {
            EXPECT_EQ(got[i].error().message, want[i].error().message);
            continue;
        }
        const OperatingPoint &g = got[i].value();
        const OperatingPoint &w = want[i].value();
        EXPECT_TRUE(sameBits(&g.temps_k, &w.temps_k, sizeof w.temps_k)) << i;
        EXPECT_TRUE(sameBits(&g.power, &w.power, sizeof w.power)) << i;
        EXPECT_TRUE(sameBits(&g.sink_temp_k, &w.sink_temp_k,
                             sizeof w.sink_temp_k))
            << i;
        EXPECT_EQ(g.converged, w.converged) << i;
        EXPECT_EQ(g.activity.retired, w.activity.retired) << i;
        EXPECT_EQ(g.stats.cycles, w.stats.cycles) << i;
        EXPECT_EQ(g.l1d_miss_ratio, w.l1d_miss_ratio) << i;
        EXPECT_EQ(g.l2_miss_ratio, w.l2_miss_ratio) << i;
        forced += g.converged ? 0 : 1;
    }
    EXPECT_GT(forced, 0u);          // the fault did fire,
    EXPECT_LT(forced, got.size()); // per point, not per batch
    EXPECT_EQ(batch.converge_calls, singles.converge_calls);
    EXPECT_EQ(batch.non_converged, singles.non_converged);
    EXPECT_EQ(batch.iterations_total, singles.iterations_total);
    EXPECT_EQ(batch.iterations_sum, singles.iterations_sum);
}

} // namespace
} // namespace ramp::core
