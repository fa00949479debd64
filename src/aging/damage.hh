/**
 * @file
 * Damage-accumulation integrator: turns an operating history into an
 * AgingState by integrating each (structure, mechanism) pair's FIT
 * over time under Miner's rule (core::damageRatePerHour), mirroring
 * core::RampEngine's interval interface.
 *
 * Unlike the engine -- which time-averages rates to report a steady
 * FIT -- the integrator is cumulative and monotone: every interval
 * can only add damage, never remove it. Thermal cycling is charged
 * incrementally (each recorded interval is one excursion from
 * ambient to the interval's temperature) rather than once from the
 * run-average temperature, so partial histories are meaningful.
 *
 * Batch integration fans the independent (structure, mechanism)
 * pairs across a ThreadPool with results landing by pair index, so
 * the integrated damage is bit-identical at every thread count.
 */

#pragma once

#include <vector>

#include "aging/state.hh"
#include "core/evaluator.hh"
#include "core/qualification.hh"
#include "util/thread_pool.hh"

namespace ramp {
namespace aging {

/** Damage-model knobs. */
struct DamageParams
{
    /** Qualified service life the FIT budget is spread over (the
     *  paper's ~30-year MTTF target). */
    double service_life_years = 30.0;
};

/** One integrable slice of operating history. */
struct StressEpoch
{
    sim::PerStructure<double> temps_k{};
    sim::PerStructure<double> activity{};
    double voltage_v = 1.0;
    double frequency_ghz = 4.0;
    double duration_s = 0.0;
};

/** Accumulates consumed lifetime from an operating history. */
class DamageIntegrator
{
  public:
    /**
     * @param qual Solved qualification (copied); its allocations
     *        define what "fraction consumed" means.
     * @param on_fractions Powered-on fraction per structure.
     * @param params Damage-model knobs.
     */
    DamageIntegrator(core::Qualification qual,
                     sim::PerStructure<double> on_fractions,
                     DamageParams params = {});

    /** Integrate one interval (same shape as RampEngine). */
    void addInterval(const sim::PerStructure<double> &temps_k,
                     const sim::PerStructure<double> &activity,
                     double voltage_v, double frequency_ghz,
                     double duration_s);

    /**
     * Integrate a batch of epochs, fanning (structure, mechanism)
     * pairs across @p pool (nullptr = serial). Per-pair accumulation
     * runs the epochs in order in both modes and results land by
     * pair index, so the resulting state is bit-identical at every
     * thread count.
     */
    void integrate(const std::vector<StressEpoch> &epochs,
                   util::ThreadPool *pool = nullptr);

    /** Resume from a persisted state. */
    void setState(AgingState state);

    const AgingState &state() const { return state_; }

    const core::Qualification &qualification() const
    {
        return qual_;
    }

    const DamageParams &params() const { return params_; }

  private:
    core::Qualification qual_;
    sim::PerStructure<double> on_frac_;
    DamageParams params_;
    AgingState state_;
};

} // namespace aging
} // namespace ramp
