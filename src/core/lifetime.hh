/**
 * @file
 * Monte-Carlo lifetime simulation beyond SOFR (paper Section 8
 * future work: "incorporate time dependence in our reliability
 * models and relax the series failure assumption").
 *
 * SOFR assumes every failure mechanism has a constant failure rate
 * (exponential lifetimes), which the paper itself calls "clearly
 * inaccurate" for wear-out: real wear-out failure rates grow with
 * age (Weibull shape beta > 1). This module samples per-(structure,
 * mechanism) lifetimes from Weibull distributions whose *means* match
 * the RAMP FIT report, forms the processor lifetime as the series-
 * system minimum, and estimates the lifetime distribution.
 *
 * The headline effect: for identical means, wear-out (beta > 1)
 * failures cluster near their means instead of spreading
 * exponentially, so the series-system MTTF is *longer* than the SOFR
 * estimate -- SOFR is conservative for wear-out -- while the spread
 * (and hence the early-failure tail that qualification actually
 * cares about) shrinks.
 */

#pragma once

#include <array>
#include <cstdint>

#include "core/engine.hh"

namespace ramp {
namespace core {

/** Controls for the Monte-Carlo lifetime estimate. */
struct LifetimeParams
{
    /**
     * Weibull shape per mechanism. beta = 1 reproduces SOFR's
     * exponential assumption exactly; wear-out mechanisms are
     * conventionally modelled with beta around 2 (EM, SM, TDDB) and
     * steeper for low-cycle fatigue (TC).
     */
    std::array<double, num_mechanisms> weibull_shape{2.0, 2.0, 2.0,
                                                     2.5};

    /** Monte-Carlo sample count. */
    std::uint32_t samples = 20000;

    /** RNG seed (results are deterministic in it). */
    std::uint64_t seed = 12345;

    /**
     * Cold spares per structure (Shivakumar et al., cited by the
     * paper: exploiting microarchitectural redundancy to extend
     * useful lifetime). A structure with s spares fails only at its
     * (s+1)-th unit failure; its FIT is split evenly over its units
     * (units = FU count for the execution pools, 1 elsewhere).
     * All zeros = the paper's series-system assumption.
     */
    sim::PerStructure<std::uint32_t> spares{};
};

/** Lifetime distribution estimate for one FIT report. */
struct LifetimeEstimate
{
    double mttf_years = 0.0;    ///< Mean of the sampled minima.
    double median_years = 0.0;  ///< 50th percentile.
    double p01_years = 0.0;     ///< 1st percentile (early failures).
    double p99_years = 0.0;     ///< 99th percentile.
    double stddev_years = 0.0;
    /** The SOFR (exponential, series) MTTF for the same report. */
    double sofr_mttf_years = 0.0;
};

/** Samples series-system lifetimes from a RAMP FIT report. */
class LifetimeSimulator
{
  public:
    explicit LifetimeSimulator(LifetimeParams params = {});

    /**
     * Estimate the processor lifetime distribution implied by the
     * report's per-(structure, mechanism) FIT matrix.
     */
    LifetimeEstimate estimate(const FitReport &report) const;

    const LifetimeParams &params() const { return params_; }

  private:
    LifetimeParams params_;
};

/** Hours in one qualified service life. */
double serviceLifeHours(double service_life_years);

/**
 * Consumed-lifetime fraction accrued per operating hour by one
 * (structure, mechanism) pair running at @p fit, under Miner's rule.
 * Normalised so that holding exactly the allocated FIT for one full
 * service life consumes 1.0 of the pair's budget; equivalently the
 * rate is the relative aging rate r(actual)/r(qual) divided by the
 * service-life hours. Pairs with no allocation do not age (rate 0).
 */
double damageRatePerHour(double fit, double allocation_fit,
                         double service_life_years);

} // namespace core
} // namespace ramp

