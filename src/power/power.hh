/**
 * @file
 * Architecture-level power model (the Wattch stand-in).
 *
 * Dynamic power per structure follows the Wattch abstraction used by
 * the paper (Section 6.3): each structure has a maximum dynamic power
 * at the base operating point; aggressive clock gating charges 10% of
 * maximum power when a structure is idle, so
 *
 *   P_dyn = maxP * on_frac * (0.1 + 0.9 * alpha) * (V/Vb)^2 * (f/fb)
 *
 * where alpha is the activity factor reported by the core and on_frac
 * is the powered-on fraction of an adaptively down-sized structure
 * (paper Section 6.1: powered-down units have no current flow).
 *
 * Leakage follows the paper exactly: 0.5 W/mm^2 at 383 K for the
 * modelled 65 nm process, scaled with temperature as
 * P(T) = P(383) * e^{beta (T - 383)} with beta = 0.017 (Heo et al.,
 * as cited by the paper), and linearly with supply voltage.
 */

#pragma once

#include "sim/core.hh"
#include "sim/machine.hh"
#include "sim/structures.hh"

namespace ramp {
namespace power {

/** Tunable constants of the power model. */
struct PowerParams
{
    /** Max dynamic power per structure (W) at 4 GHz / 1.0 V, full
     *  activity. Calibrated so Table 2 base powers are reproduced. */
    sim::PerStructure<double> max_dynamic_w{
        11.5,  // IntALU
        12.1,  // FPU
        5.3,   // IntReg
        4.1,   // FPReg
        3.6,   // Bpred
        9.4,   // IWin
        4.6,   // LSQ
        8.6,   // L1D
        5.1,   // L1I
        7.6,   // FrontEnd
    };

    /** Idle (clock-gated) fraction of max power: the paper's 10%. */
    double gating_floor = 0.1;

    /** Leakage power density at 383 K (W/mm^2), paper Section 6.3. */
    double leakage_density_383 = 0.5;

    /** Leakage-temperature exponent beta (1/K), paper Section 6.3. */
    double leakage_beta = 0.017;

    /** Reference temperature for the leakage density (K). */
    double leakage_t_ref = 383.0;

    /** Base operating point the max powers are specified at. */
    double base_frequency_ghz = 4.0;
    double base_voltage_v = 1.0;

    /** Die area multiplier relative to the 65 nm reference (scales
     *  leakage area in technology studies). */
    double area_scale = 1.0;
};

/**
 * Powered-on fraction of each structure for a machine configuration,
 * relative to the base Table 1 machine. Down-sized windows, queues,
 * and FU pools are power- (and hence failure-) gated proportionally.
 */
sim::PerStructure<double> poweredFractions(const sim::MachineConfig &cfg);

/** Per-structure and total power at one operating point. */
struct PowerBreakdown
{
    sim::PerStructure<double> dynamic_w{};
    sim::PerStructure<double> leakage_w{};

    double totalDynamic() const;
    double totalLeakage() const;
    double total() const { return totalDynamic() + totalLeakage(); }

    /** Dynamic + leakage for one structure. */
    double structureTotal(sim::StructureId id) const
    {
        const auto i = sim::structureIndex(id);
        return dynamic_w[i] + leakage_w[i];
    }
};

/** The power model for one machine configuration. */
class PowerModel
{
  public:
    PowerModel(const sim::MachineConfig &cfg, PowerParams params = {});

    /**
     * Dynamic power per structure for one activity sample at the
     * configured voltage/frequency.
     */
    sim::PerStructure<double>
    dynamicPower(const sim::ActivitySample &activity) const;

    /**
     * Leakage power per structure given per-structure temperatures
     * (kelvin). Power-gated area leaks nothing.
     */
    sim::PerStructure<double>
    leakagePower(const sim::PerStructure<double> &temps_k) const;

    /** Full breakdown for an activity sample and temperature map. */
    PowerBreakdown
    breakdown(const sim::ActivitySample &activity,
              const sim::PerStructure<double> &temps_k) const;

    const PowerParams &params() const { return params_; }
    const sim::MachineConfig &config() const { return cfg_; }

  private:
    sim::MachineConfig cfg_;
    PowerParams params_;
    sim::PerStructure<double> on_frac_;
};

} // namespace power
} // namespace ramp

