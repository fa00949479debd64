/**
 * @file
 * The RAMP engine: SOFR combination across structures and mechanisms
 * (Section 3.5) and FIT accumulation over time (Section 3.6).
 *
 * EM, SM, and TDDB FIT values are computed per interval from the
 * interval's (T, V, f, alpha) and averaged over time weighted by
 * interval duration. Thermal cycling uses the whole-run average
 * temperature of each structure versus ambient, applied once at
 * reporting time. The processor FIT is the plain sum over structures
 * and mechanisms (SOFR: series failure system with exponential
 * lifetimes), and MTTF = 1e9 / FIT hours.
 */

#pragma once

#include <array>
#include <vector>

#include "core/fit.hh"
#include "core/mechanisms.hh"
#include "core/qualification.hh"
#include "sim/structures.hh"
#include "util/stats.hh"

namespace ramp {
namespace core {

/**
 * Accumulates interval samples for one workload run on one machine
 * configuration and produces the application FIT report.
 */
class RampEngine
{
  public:
    /**
     * @param qual Solved qualification (owned by caller, copied).
     * @param on_fractions Powered-on fraction per structure.
     * @param em_j_scale Technology EM current-density scale for the
     *        tracked machine (1.0 at the 65 nm reference).
     */
    RampEngine(Qualification qual,
               sim::PerStructure<double> on_fractions,
               double em_j_scale = 1.0);

    /**
     * Record one interval of execution.
     *
     * @param temps_k Per-structure temperatures over the interval.
     * @param activity Per-structure activity factors.
     * @param voltage_v Supply voltage during the interval.
     * @param frequency_ghz Clock frequency during the interval.
     * @param duration_s Interval length in seconds (> 0).
     */
    void addInterval(const sim::PerStructure<double> &temps_k,
                     const sim::PerStructure<double> &activity,
                     double voltage_v, double frequency_ghz,
                     double duration_s);

    /** Produce the report for everything recorded so far. */
    FitReport report() const;

    /** Discard accumulated state. */
    void reset();

    /** Number of intervals recorded. */
    std::uint64_t intervals() const { return intervals_; }

    const Qualification &qualification() const { return qual_; }

  private:
    Qualification qual_;
    sim::PerStructure<double> on_frac_;
    double em_j_scale_;

    /** Time-weighted FIT accumulators for EM, SM, TDDB. */
    sim::PerStructure<std::array<util::TimeWeightedStat, 3>> rate_acc_;
    /** Time-weighted temperature per structure (drives TC). */
    sim::PerStructure<util::TimeWeightedStat> temp_acc_;
    /** Time-weighted activity (reported back for diagnostics). */
    sim::PerStructure<util::TimeWeightedStat> act_acc_;

    std::uint64_t intervals_ = 0;
};

/**
 * One-shot helper: the FIT report of a single steady operating point
 * held for one second (the common case for the oracle DRM
 * exploration, where each application is statistically stationary).
 * Prices a FitBasis of the point under @p qual; the result is bit
 * for bit what one one-second RampEngine interval reports.
 */
FitReport steadyFit(const Qualification &qual,
                    const sim::PerStructure<double> &on_fractions,
                    const sim::PerStructure<double> &temps_k,
                    const sim::PerStructure<double> &activity,
                    double voltage_v, double frequency_ghz,
                    double em_j_scale = 1.0);

/**
 * The FIT report of a *workload*: the weighted average of the FIT
 * values of the constituent applications (paper Section 3.6).
 * Weights are time shares; they must be positive and are normalised
 * internally. Reports and weights must have equal, nonzero size.
 */
FitReport combineReports(const std::vector<FitReport> &reports,
                         const std::vector<double> &weights);

} // namespace core
} // namespace ramp

