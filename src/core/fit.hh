/**
 * @file
 * FIT reports and the per-point pricing basis (paper Sections 3.5-3.7).
 *
 * Qualification pins FIT(cond) = alloc * e^(log r(cond) - log r(qual)).
 * log r(cond) of the three per-interval mechanisms (EM, SM, TDDB)
 * depends only on the operating point, so a FitBasis computes it once
 * and core::Qualification::price turns it into a FitReport under any
 * qualification. Thermal cycling stays out of the basis: its rate is
 * taken against the qualification's ambient temperature.
 */

#pragma once

#include <array>
#include <cstddef>

#include "core/mechanisms.hh"
#include "sim/structures.hh"

namespace ramp {
namespace core {

/** Per-structure, per-mechanism FIT matrix plus totals. */
struct FitReport
{
    sim::PerStructure<std::array<double, num_mechanisms>> fit{};

    /** Time-average temperature per structure (K). */
    sim::PerStructure<double> avg_temp_k{};

    /** Total time accounted (s of workload execution). */
    double total_time_s = 0.0;

    /** FIT of one structure summed over mechanisms. */
    double structureFit(sim::StructureId s) const;

    /** FIT of one mechanism summed over structures. */
    double mechanismFit(Mechanism m) const;

    /** Processor FIT (SOFR sum over everything). */
    double totalFit() const;

    /** Processor MTTF in years implied by totalFit(). */
    double mttfYears() const;
};

/**
 * Fatal unless every powered-on fraction is in [0,1] and the EM
 * current-density scale is positive.
 */
void checkFitInputs(const sim::PerStructure<double> &on_fractions,
                    double em_j_scale);

/**
 * The qualification-independent half of one steady operating point's
 * FIT: the EM, SM and TDDB log rates per structure at the point's
 * temperatures, activity, voltage, frequency and EM scale, plus the
 * powered-on fractions that scale EM and TDDB. 320 bytes.
 */
struct FitBasis
{
    /** Mechanisms held, in mechanismIndex order: EM, SM, TDDB. */
    static constexpr std::size_t num_rated = 3;

    FitBasis() = default;

    /** Same arguments, and the same fatal checks, as steadyFit
     *  (core/engine.hh). */
    FitBasis(const sim::PerStructure<double> &on_fractions,
             const sim::PerStructure<double> &temps_k,
             const sim::PerStructure<double> &activity,
             double voltage_v, double frequency_ghz,
             double em_j_scale = 1.0);

    /** logRelativeRate per structure and rated mechanism. */
    sim::PerStructure<std::array<double, num_rated>> log_rate{};

    /** Powered-on fraction per structure. */
    sim::PerStructure<double> on_fraction{};
};

static_assert(mechanismIndex(Mechanism::TC) == FitBasis::num_rated,
              "thermal cycling must follow the rated mechanisms");

} // namespace core
} // namespace ramp
