#include "drm/transient.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "fault/fault.hh"
#include "sim/core.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/telemetry.hh"
#include "workload/trace_gen.hh"

namespace ramp {
namespace drm {

namespace {

/** Non-finite per-structure power samples replaced by the previous
 *  interval's finite value before the thermal step. */
telemetry::Counter &
powerHoldCounter()
{
    static telemetry::Counter c =
        telemetry::counter("transient.power_holds");
    return c;
}

} // namespace

std::uint32_t
TransientResult::thermalViolations(double t_design_k) const
{
    std::uint32_t n = 0;
    for (const auto &s : trace)
        n += s.max_temp_k > t_design_k;
    return n;
}

TransientRunner::TransientRunner(TransientParams params)
    : params_(params)
{
    if (params_.interval_uops == 0 || params_.num_intervals == 0)
        util::fatal("transient run needs nonzero intervals");
    if (params_.represented_time_s <= 0.0)
        util::fatal("represented_time_s must be positive");
}

TransientResult
TransientRunner::run(const workload::AppProfile &app,
                     const core::Qualification &qual,
                     Policy policy) const
{
    const auto &ladder = dvsLevels();
    // Index of the base (4 GHz) rung.
    std::size_t base_level = 0;
    for (std::size_t i = 0; i < ladder.size(); ++i)
        if (ladder[i].frequency_ghz == 4.0)
            base_level = i;

    workload::TraceGenerator gen(app, params_.seed);
    sim::MachineConfig cfg = sim::baseMachine();
    sim::Core core(cfg, gen);
    core.runUops(params_.warmup_uops);
    core.takeInterval();
    core.resetStats();

    thermal::ThermalModel thermal_model(params_.thermal);
    core::RampEngine engine(qual,
                            power::poweredFractions(cfg));
    DrmController drm_ctl(params_.drm, ladder.size(), base_level);
    DtmController dtm_ctl(params_.dtm, ladder.size(), base_level);

    // Sensor conditioning in front of each controller. Clean readings
    // pass through bit-exactly, so these change nothing on a
    // fault-free run.
    fault::SensorChannel temp_chan(params_.temp_channel);
    fault::SensorChannel fit_chan(params_.fit_channel);
    const std::size_t failsafe_level =
        std::min(params_.failsafe_level, ladder.size() - 1);

    // Fault injection, armed only when a plan is installed. The
    // sensor streams and the power-NaN injector are serial (one
    // control loop), so per-stream Rngs keep each deterministic in
    // (plan seed, stream name).
    const fault::FaultPlan *plan = fault::activeFaultPlan();
    std::optional<fault::SensorFaulter> temp_faulter;
    std::optional<fault::SensorFaulter> fit_faulter;
    std::optional<util::Rng> power_rng;
    if (plan) {
        temp_faulter.emplace(*plan, "dtm.temp", params_.dtm.t_design_k);
        fit_faulter.emplace(*plan, "drm.fit", params_.drm.target_fit);
        if (plan->enabled(fault::FaultKind::PowerNan))
            power_rng.emplace(
                fault::faultHash(plan->seed, "transient.power"));
    }

    TransientResult result;
    result.trace.reserve(params_.num_intervals);

    std::size_t level = base_level;
    bool thermal_initialised = false;
    double perf_sum = 0.0;
    sim::PerStructure<double> held_power_w{};

    for (std::uint32_t i = 0; i < params_.num_intervals; ++i) {
        const DvsLevel &lvl = ladder[level];
        cfg.frequency_ghz = lvl.frequency_ghz;
        cfg.voltage_v = lvl.voltage_v;
        core.setOperatingPoint(lvl.frequency_ghz, lvl.voltage_v);

        core.runUops(params_.interval_uops);
        const auto sample = core.takeInterval();

        const power::PowerModel pmodel(cfg, params_.power);
        const auto dyn = pmodel.dynamicPower(sample);

        // Leakage from the current thermal state (feedback), then
        // advance the RC network holding this interval's power.
        if (!thermal_initialised) {
            sim::PerStructure<double> warm_leak =
                pmodel.leakagePower(thermal_model.blockTemps());
            sim::PerStructure<double> total{};
            for (std::size_t s = 0; s < sim::num_structures; ++s)
                total[s] = dyn[s] + warm_leak[s];
            thermal_model.initialiseSteady(total);
            thermal_initialised = true;
        }
        const auto leak =
            pmodel.leakagePower(thermal_model.blockTemps());
        sim::PerStructure<double> total{};
        for (std::size_t s = 0; s < sim::num_structures; ++s)
            total[s] = dyn[s] + leak[s];

        if (power_rng &&
            power_rng->chance(
                plan->spec(fault::FaultKind::PowerNan).rate)) {
            total[power_rng->below(sim::num_structures)] =
                std::numeric_limits<double>::quiet_NaN();
            fault::countFault(fault::FaultKind::PowerNan);
            result.degradation.injected_faults += 1;
        }
        // Graceful degradation: a non-finite power sample would poison
        // the RC state for the rest of the run, so hold the structure
        // at its previous finite value instead.
        for (std::size_t s = 0; s < sim::num_structures; ++s) {
            if (std::isfinite(total[s])) {
                held_power_w[s] = total[s];
            } else {
                total[s] = held_power_w[s];
                powerHoldCounter().add();
                result.degradation.power_holds += 1;
            }
        }
        thermal_model.step(total, params_.represented_time_s);
        const auto temps = thermal_model.blockTemps();

        engine.addInterval(temps, sample.activity, cfg.voltage_v,
                           cfg.frequency_ghz,
                           params_.represented_time_s);

        TransientSample out;
        out.level = level;
        out.frequency_ghz = cfg.frequency_ghz;
        out.voltage_v = cfg.voltage_v;
        out.ipc = sample.ipc();
        out.max_temp_k =
            *std::max_element(temps.begin(), temps.end());
        double power_total = 0.0;
        for (std::size_t s = 0; s < sim::num_structures; ++s)
            power_total += total[s];
        out.total_power_w = power_total;
        out.avg_fit = engine.report().totalFit();

        // What the controllers see: the true values, through the
        // faulter (when armed) and the conditioning channel.
        const auto temp_reading = temp_chan.observe(
            temp_faulter ? temp_faulter->apply(out.max_temp_k)
                         : out.max_temp_k);
        const auto fit_reading = fit_chan.observe(
            fit_faulter ? fit_faulter->apply(out.avg_fit)
                        : out.avg_fit);
        out.sensed_temp_k = temp_reading.value;
        out.sensed_fit = fit_reading.value;

        result.max_temp_seen_k =
            std::max(result.max_temp_seen_k, out.max_temp_k);
        perf_sum += sample.ipc() * cfg.frequency_ghz * 1e9;

        // A fail-safe latch overrides the active policy's controller:
        // K consecutive invalid readings mean the control input cannot
        // be trusted, so run at the safest rung until the channel sees
        // enough valid readings to release. (Forced moves are not
        // controller transitions.)
        switch (policy) {
          case Policy::None:
            break;
          case Policy::Drm:
            level = drm_ctl.observe(fit_reading.value);
            if (fit_reading.failsafe)
                level = failsafe_level;
            out.failsafe = fit_reading.failsafe;
            break;
          case Policy::Dtm:
            level = dtm_ctl.observe(temp_reading.value);
            if (temp_reading.failsafe)
                level = failsafe_level;
            out.failsafe = temp_reading.failsafe;
            break;
        }
        result.degradation.failsafe_intervals += out.failsafe;
        result.trace.push_back(out);
    }

    result.final_avg_fit = engine.report().totalFit();
    // Policy::None never observes, so either controller reports 0.
    result.level_transitions = policy == Policy::Dtm
                                   ? dtm_ctl.transitions()
                                   : drm_ctl.transitions();
    result.avg_uops_per_second = perf_sum / params_.num_intervals;

    auto &deg = result.degradation;
    for (const auto *chan : {&temp_chan, &fit_chan}) {
        const auto &st = chan->stats();
        deg.invalid_readings += st.invalid;
        deg.fallbacks += st.fallbacks;
        deg.despiked += st.despiked;
        deg.failsafe_engages += st.engages;
    }
    if (temp_faulter)
        deg.injected_faults += temp_faulter->tally().total();
    if (fit_faulter)
        deg.injected_faults += fit_faulter->tally().total();
    return result;
}

} // namespace drm
} // namespace ramp
