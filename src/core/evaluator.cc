#include "core/evaluator.hh"

#include <algorithm>
#include <cmath>
#include <optional>

#include "fault/fault.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "workload/trace_gen.hh"

namespace ramp {
namespace core {

using sim::num_structures;
using sim::PerStructure;

namespace {

/** Telemetry handles, registered once (Section 6.3 hot loop). */
struct EvalMetrics
{
    telemetry::Counter evaluate_calls =
        telemetry::counter("evaluator.evaluate_calls");
    telemetry::Counter converge_calls =
        telemetry::counter("evaluator.converge_calls");
    /** Fixed-point iterations per convergeThermal() call. */
    telemetry::Histogram iterations =
        telemetry::histogram("evaluator.iterations", 0.0, 32.0, 32);
    /** Worst per-block residual (K) when the loop stopped; overflow
     *  bin = hit the iteration limit far from convergence. */
    telemetry::Histogram residual_k =
        telemetry::histogram("evaluator.residual_k", 0.0, 0.02, 20);
    /** Wall time of one simulate() (the timing half of evaluate()). */
    telemetry::Histogram evaluate_s =
        telemetry::histogram("evaluator.evaluate_s", 0.0, 2.0, 40);
    /** Fixed points that stopped at the iteration limit (including
     *  fault-forced ones); their points carry converged == false. */
    telemetry::Counter non_converged =
        telemetry::counter("evaluator.non_converged");
};

EvalMetrics &
evalMetrics()
{
    static EvalMetrics m;
    return m;
}

} // namespace

Evaluator::Evaluator(EvalParams params)
    : params_(params), network_(params_.thermal_params)
{
    if (params_.measure_uops == 0)
        util::fatal("evaluator needs a nonzero measurement length");
    if (params_.max_iterations == 0)
        util::fatal("evaluator needs at least one thermal iteration");
    if (params_.tolerance_k <= 0.0)
        util::fatal("thermal tolerance must be positive");
}

namespace {

/** Scheduling-independent identity of one fixed-point invocation,
 *  for the forced-non-convergence fault hook. */
std::uint64_t
convergeSiteHash(const sim::MachineConfig &cfg,
                 const sim::ActivitySample &activity)
{
    std::uint64_t h = fault::faultHash(0, cfg.frequency_ghz);
    h = fault::faultHash(h, cfg.voltage_v);
    h = fault::faultHash(h, static_cast<double>(cfg.fetch_duty_x8));
    h = fault::faultHash(h, static_cast<double>(cfg.num_int_alu));
    h = fault::faultHash(h, static_cast<double>(cfg.num_fpu));
    h = fault::faultHash(h, static_cast<double>(cfg.num_agen));
    h = fault::faultHash(h, static_cast<double>(activity.cycles));
    h = fault::faultHash(h, static_cast<double>(activity.retired));
    return h;
}

} // namespace

std::vector<util::Result<ThermalFixedPoint>>
tryConvergeLeakage(const thermal::ThermalModel &network,
                   std::span<const LeakageLane> lanes,
                   const EvalParams &params)
{
    static const telemetry::Counter leak_clamped =
        telemetry::counter("evaluator.leak_clamped");
    static const telemetry::Counter near_limit =
        telemetry::counter("evaluator.near_limit");

    // Leakage evaluation temperature is clamped: above ~450 K the
    // exponential leakage-temperature loop has no stable fixed point
    // (thermal runaway). The clamp keeps the solve finite; runaway
    // operating points then report enormous (but finite) temperatures
    // and FIT, and every selection policy rejects them.
    constexpr double leak_temp_cap = 450.0;
    const auto leakage = [&](const power::PowerModel &pmodel,
                             const PerStructure<double> &temps_k) {
        PerStructure<double> leak_temps = temps_k;
        for (auto &t : leak_temps)
            t = std::min(t, leak_temp_cap);
        if (!params.leakage_feedback) {
            // Ablation: leakage pinned at the reference density.
            leak_temps.fill(params.power_params.leakage_t_ref);
        }
        return pmodel.leakagePower(leak_temps);
    };

    const std::size_t tiles = network.numTiles();
    for (const LeakageLane &lane : lanes)
        if (lane.pmodels.size() != tiles || lane.dynamic_w.size() != tiles)
            util::panic("fixed point needs one power model and one "
                        "dynamic power map per tile");

    // Every lane starts from a flat guess a little above ambient.
    const std::size_t count = lanes.size();
    std::vector<ThermalFixedPoint> fps(count);
    std::vector<std::optional<util::RampError>> errors(count);
    std::vector<std::size_t> running(count);
    for (std::size_t l = 0; l < count; ++l) {
        fps[l].temps_k.resize(tiles);
        for (auto &t : fps[l].temps_k)
            t.fill(params.thermal_params.ambient_k + 30.0);
        running[l] = l;
    }

    // Each iteration solves the lanes still running in one pass; lane
    // j of the pass sits in column j of the interleaved system.
    const std::size_t nodes = network.nodes();
    std::vector<double> system(nodes * count);
    std::vector<PerStructure<double>> total(tiles);
    for (std::uint32_t it = 0; it < params.max_iterations && !running.empty();
         ++it) {
        const std::size_t k = running.size();
        const std::span<double> b(system.data(), nodes * k);
        for (std::size_t j = 0; j < k; ++j) {
            const LeakageLane &lane = lanes[running[j]];
            for (std::size_t c = 0; c < tiles; ++c) {
                const auto leak =
                    leakage(lane.pmodels[c], fps[running[j]].temps_k[c]);
                for (std::size_t i = 0; i < num_structures; ++i)
                    total[c][i] = lane.dynamic_w[c][i] + leak[i];
            }
            if (auto r = network.loadSteadyLane(total, b, k, j); !r)
                errors[running[j]] = r.error();
        }
        if (auto r = network.solveSteadyLanes(b, k); !r) {
            for (std::size_t l : running)
                if (!errors[l])
                    errors[l] = r.error();
            break;
        }

        std::size_t kept = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t l = running[j];
            if (errors[l])
                continue;
            ThermalFixedPoint &fp = fps[l];
            double worst = 0.0;
            for (std::size_t c = 0; c < tiles; ++c) {
                PerStructure<double> &temps = fp.temps_k[c];
                for (std::size_t i = 0; i < num_structures; ++i) {
                    const double solved_k =
                        b[(c * num_structures + i) * k + j];
                    worst = std::max(worst, std::fabs(solved_k - temps[i]));
                    // Mild damping keeps the exponential leakage loop
                    // stable even at high power density.
                    temps[i] = 0.5 * temps[i] + 0.5 * solved_k;
                }
            }
            fp.sink_k = b[(nodes - 1) * k + j];
            ++fp.iterations;
            fp.residual_k = worst;
            if (worst < params.tolerance_k)
                continue;
            if (it + 1 == params.max_iterations)
                util::warn("thermal fixed point hit the iteration limit");
            running[kept++] = l;
        }
        running.resize(kept);
    }

    std::vector<util::Result<ThermalFixedPoint>> out;
    out.reserve(count);
    for (std::size_t l = 0; l < count; ++l) {
        if (errors[l]) {
            out.emplace_back(std::move(*errors[l]));
            continue;
        }
        ThermalFixedPoint &fp = fps[l];
        fp.converged = fp.residual_k < params.tolerance_k;
        // Stopping in the last 10% of the limit (or at it) says the
        // limit, not the physics, nearly decided the point.
        if (10 * std::uint64_t{fp.iterations} >
            9 * std::uint64_t{params.max_iterations})
            near_limit.add();

        // Final power at the clamped final temperatures; the clamp
        // counter reports runaway points instead of hiding them.
        bool clamped = false;
        std::optional<util::RampError> non_finite;
        for (std::size_t c = 0; c < tiles && !non_finite; ++c) {
            fp.power.push_back({lanes[l].dynamic_w[c],
                                leakage(lanes[l].pmodels[c], fp.temps_k[c])});
            for (double t : fp.temps_k[c]) {
                if (!std::isfinite(t)) {
                    non_finite = util::RampError{
                        util::ErrorCode::NonFiniteValue,
                        util::cat("thermal fixed point produced "
                                  "non-finite temperatures on core ",
                                  c)};
                    break;
                }
                clamped = clamped ||
                          (params.leakage_feedback && t > leak_temp_cap);
            }
        }
        if (non_finite) {
            out.emplace_back(std::move(*non_finite));
            continue;
        }
        if (clamped)
            leak_clamped.add();
        out.emplace_back(std::move(fp));
    }
    return out;
}

util::Result<ThermalFixedPoint>
tryConvergeLeakage(const thermal::ThermalModel &network,
                   std::span<const power::PowerModel> pmodels,
                   thermal::TileMaps dynamic_w, const EvalParams &params)
{
    const LeakageLane lane{pmodels, dynamic_w};
    return std::move(tryConvergeLeakage(network, {&lane, 1}, params).front());
}

std::vector<util::Result<OperatingPoint>>
Evaluator::tryConvergeThermal(std::span<const sim::MachineConfig> cfgs,
                              std::span<const Measurement *const> measured) const
{
    if (cfgs.size() != measured.size())
        util::panic("tryConvergeThermal needs one measurement per "
                    "configuration");
    auto &metrics = evalMetrics();
    const std::size_t count = cfgs.size();
    std::vector<power::PowerModel> pmodels;
    pmodels.reserve(count);
    std::vector<PerStructure<double>> dyn;
    dyn.reserve(count);
    std::vector<LeakageLane> lanes;
    lanes.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        pmodels.emplace_back(cfgs[i], params_.power_params);
        dyn.push_back(pmodels[i].dynamicPower(measured[i]->activity));
        lanes.push_back({{&pmodels[i], 1}, {&dyn[i], 1}});
        metrics.converge_calls.add();
    }
    auto fps = tryConvergeLeakage(network_, lanes, params_);

    std::vector<util::Result<OperatingPoint>> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        if (!fps[i]) {
            out.emplace_back(fps[i].error());
            continue;
        }
        const ThermalFixedPoint &fp = fps[i].value();
        metrics.iterations.add(static_cast<double>(fp.iterations));
        metrics.residual_k.add(fp.residual_k);

        const Measurement &m = *measured[i];
        OperatingPoint op;
        op.config = cfgs[i];
        op.activity = m.activity;
        op.stats = m.stats;
        op.temps_k = fp.temps_k[0];
        op.sink_temp_k = fp.sink_k;
        op.power = fp.power[0];
        op.l1d_miss_ratio = m.l1d_miss_ratio;
        op.l1i_miss_ratio = m.l1i_miss_ratio;
        op.l2_miss_ratio = m.l2_miss_ratio;

        // Stopped at the limit without meeting tolerance: the iterate
        // is not a fixed point. Also the hook for the
        // forced-non-convergence fault, which flags the (otherwise
        // clean) point so downstream handling of untrusted
        // evaluations can be exercised.
        op.converged = fp.converged;
        if (const auto *plan = fault::activeFaultPlan();
            plan && op.converged &&
            fault::forceNonConvergence(
                *plan, convergeSiteHash(op.config, op.activity)))
            op.converged = false;
        if (!op.converged)
            metrics.non_converged.add();
        out.emplace_back(std::move(op));
    }
    return out;
}

util::Result<OperatingPoint>
Evaluator::tryConvergeThermal(const sim::MachineConfig &cfg,
                              const sim::ActivitySample &activity,
                              const sim::CoreStats &stats) const
{
    const Measurement m{activity, stats};
    const Measurement *one = &m;
    return std::move(tryConvergeThermal({&cfg, 1}, {&one, 1}).front());
}

OperatingPoint
Evaluator::convergeThermal(const sim::MachineConfig &cfg,
                           const sim::ActivitySample &activity,
                           const sim::CoreStats &stats) const
{
    auto result = tryConvergeThermal(cfg, activity, stats);
    if (!result)
        util::fatal(util::cat("convergeThermal: ",
                              result.error().str()));
    return std::move(result.value());
}

Measurement
Evaluator::simulate(const sim::MachineConfig &cfg,
                    const workload::AppProfile &profile) const
{
    auto &metrics = evalMetrics();
    metrics.evaluate_calls.add();
    telemetry::ScopedTimer timer(metrics.evaluate_s, "evaluate",
                                 "evaluator");

    workload::TraceGenerator gen(profile, params_.seed);
    sim::Core core(cfg, gen);

    core.runUops(params_.warmup_uops);
    core.takeInterval();
    core.resetStats();

    const auto &mem = core.memory();
    const auto l1d_acc0 = mem.l1d().accesses();
    const auto l1d_miss0 = mem.l1d().misses();
    const auto l1i_acc0 = mem.l1i().accesses();
    const auto l1i_miss0 = mem.l1i().misses();
    const auto l2_acc0 = mem.l2().accesses();
    const auto l2_miss0 = mem.l2().misses();

    core.runUops(params_.measure_uops);
    Measurement m;
    m.activity = core.takeInterval();
    m.stats = core.stats();
    auto ratio = [](std::uint64_t miss, std::uint64_t acc) {
        return acc ? static_cast<double>(miss) /
                         static_cast<double>(acc)
                   : 0.0;
    };
    m.l1d_miss_ratio = ratio(mem.l1d().misses() - l1d_miss0,
                             mem.l1d().accesses() - l1d_acc0);
    m.l1i_miss_ratio = ratio(mem.l1i().misses() - l1i_miss0,
                             mem.l1i().accesses() - l1i_acc0);
    m.l2_miss_ratio = ratio(mem.l2().misses() - l2_miss0,
                            mem.l2().accesses() - l2_acc0);
    return m;
}

util::Result<OperatingPoint>
Evaluator::tryEvaluate(const sim::MachineConfig &cfg,
                       const workload::AppProfile &profile) const
{
    const Measurement m = simulate(cfg, profile);
    const Measurement *one = &m;
    return std::move(tryConvergeThermal({&cfg, 1}, {&one, 1}).front());
}

OperatingPoint
Evaluator::evaluate(const sim::MachineConfig &cfg,
                    const workload::AppProfile &profile) const
{
    auto result = tryEvaluate(cfg, profile);
    if (!result)
        util::fatal(util::cat("evaluate: ", result.error().str()));
    return std::move(result.value());
}

} // namespace core
} // namespace ramp
