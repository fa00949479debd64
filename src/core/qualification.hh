/**
 * @file
 * Reliability qualification (paper Section 3.7).
 *
 * A processor is qualified to a target failure rate (FIT_target =
 * 4000, i.e. ~30-year MTTF) at a chosen set of qualification
 * parameters: temperature T_qual, voltage V_qual, frequency f_qual,
 * and activity alpha_qual. The qualification parameters act as a
 * proxy for qualification *cost*: the higher they are, the more
 * expensive the part is to qualify (Section 3.7 -- the paper sweeps
 * T_qual only, fixing V_qual and f_qual at the base operating point
 * and alpha_qual at the per-structure maximum across the workload
 * suite).
 *
 * The 4000-FIT budget is split evenly across the four mechanisms, and
 * each mechanism's share across structures proportionally to area.
 * Solving FIT(qual conditions) = allocation for the technology
 * proportionality constant then lets RAMP report an absolute FIT for
 * any actual operating conditions.
 */

#pragma once

#include <cstddef>

#include "core/fit.hh"
#include "core/mechanisms.hh"
#include "sim/structures.hh"

namespace ramp {
namespace core {

/** Qualification parameter set (the cost proxy). */
struct QualificationSpec
{
    /** Target total failure rate in FIT (4000 ~ 30-year MTTF). */
    double target_fit = 4000.0;

    /** Qualification temperature, K (the knob the paper sweeps). */
    double t_qual_k = 400.0;

    /** Qualification voltage (fixed at the base supply). */
    double v_qual_v = 1.0;

    /** Qualification frequency, GHz (fixed at the base clock). */
    double f_qual_ghz = 4.0;

    /** Per-structure qualification activity: the highest activity
     *  factor observed across the application suite on the base
     *  machine. */
    sim::PerStructure<double> alpha_qual{};

    /** Ambient temperature used for the thermal-cycling budget, K. */
    double ambient_k = 300.0;

    /** EM current-density technology scale at qualification (see
     *  OperatingConditions::em_j_scale). */
    double em_j_scale_qual = 1.0;
};

/**
 * A fully-solved qualification: per-(structure, mechanism) FIT
 * allocations and the log-rates at the qualification point.
 */
class Qualification
{
  public:
    explicit Qualification(QualificationSpec spec);

    /** FIT budget allocated to one structure/mechanism pair. */
    double allocation(sim::StructureId s, Mechanism m) const;

    /**
     * Absolute FIT of structure s under mechanism m at the given
     * actual conditions.
     *
     * @param on_fraction Powered-on area fraction of the structure;
     *        scales EM and TDDB only (gated area has no current and
     *        no field; mechanical mechanisms are unaffected).
     */
    double fit(sim::StructureId s, Mechanism m,
               const OperatingConditions &actual,
               double on_fraction = 1.0) const;

    /**
     * The FIT report of a steady operating point held for one second,
     * priced from its basis: fit() of every structure and mechanism,
     * with EM, SM and TDDB taking their log rates from @p basis and
     * thermal cycling taking @p temps_k (the point's temperatures)
     * against this qualification's ambient. Each entry goes through
     * the same arithmetic as fit(), so the report is bit-identical to
     * a one-interval RampEngine over the same inputs.
     */
    FitReport price(const FitBasis &basis,
                    const sim::PerStructure<double> &temps_k) const;

    /**
     * price(basis, temps_k).totalFit() when that is at most @p limit;
     * otherwise some value above @p limit, or NaN. It sums the terms
     * in totalFit()'s order and stops as soon as the sum exceeds
     * @p limit: no term is negative (allocations are not, nor are a
     * FitBasis's powered-on fractions), and adding a non-negative term
     * never makes a floating-point sum smaller. So `fitWithin(...) <=
     * limit` is exactly `price(...).totalFit() <= limit`, and when it
     * holds the two values are bit-identical.
     */
    double fitWithin(const FitBasis &basis,
                     const sim::PerStructure<double> &temps_k,
                     double limit) const;

    const QualificationSpec &spec() const { return spec_; }

    /** Conditions the part was qualified at (for structure s). */
    OperatingConditions qualConditions(sim::StructureId s) const;

  private:
    /** alloc * e^(log_rate - log r(qual)) of structure index @p si,
     *  scaled by @p on_fraction for EM and TDDB. */
    double priced(std::size_t si, Mechanism m, double log_rate,
                  double on_fraction) const;

    /** Entry (@p si, @p mi) of price(basis, temps_k). */
    double pricedEntry(std::size_t si, std::size_t mi,
                       const FitBasis &basis,
                       const sim::PerStructure<double> &temps_k) const;

    QualificationSpec spec_;
    /** log r(qual) per structure x mechanism. */
    sim::PerStructure<std::array<double, num_mechanisms>> log_rate_qual_;
    /** FIT allocation per structure x mechanism. */
    sim::PerStructure<std::array<double, num_mechanisms>> alloc_;
};

} // namespace core
} // namespace ramp

