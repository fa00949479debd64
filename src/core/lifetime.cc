#include "core/lifetime.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/constants.hh"
#include "util/logging.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace ramp {
namespace core {

using sim::allStructures;
using sim::structureIndex;

LifetimeSimulator::LifetimeSimulator(LifetimeParams params)
    : params_(params)
{
    if (params_.samples == 0)
        util::fatal("lifetime simulation needs at least one sample");
    for (double beta : params_.weibull_shape)
        if (beta <= 0.0)
            util::fatal("Weibull shape must be positive");
}

namespace {

/** Redundant unit count of a structure (execution pools only). */
std::uint32_t
unitsOf(sim::StructureId s)
{
    switch (s) {
      case sim::StructureId::IntAlu:
        return 6;
      case sim::StructureId::Fpu:
        return 4;
      default:
        return 1;
    }
}

} // namespace

LifetimeEstimate
LifetimeSimulator::estimate(const FitReport &report) const
{
    // Pre-compute Weibull scales: mean = scale * Gamma(1 + 1/beta),
    // with the mean anchored to each component's MTTF from its FIT.
    // A structure without spares is one aggregate component per
    // mechanism (the paper's series assumption); with spares its FIT
    // is split over its units and it survives until the (spares+1)-th
    // unit failure.
    struct Component
    {
        double scale_years;
        double inv_beta;
        std::size_t group;      ///< Structure sparing group.
    };
    struct Group
    {
        std::uint32_t units = 1;
        std::uint32_t spares = 0;
    };
    std::vector<Component> components;
    std::vector<Group> groups;

    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        Group g;
        g.units = unitsOf(s);
        g.spares = std::min(params_.spares[si],
                            g.units > 0 ? g.units - 1 : 0u);
        if (g.spares == 0)
            g.units = 1; // aggregate component, legacy behaviour
        const std::size_t group_id = groups.size();
        groups.push_back(g);

        for (auto m : allMechanisms()) {
            const double fit =
                report.fit[si][mechanismIndex(m)];
            if (fit <= 0.0)
                continue; // mechanism inactive for this structure
            const double unit_fit = fit / g.units;
            // ramp-lint: convert(fit->years): MTTF = 1e9/FIT hours
            const double mean_years = util::fitToMttfYears(unit_fit);
            const double beta =
                params_.weibull_shape[mechanismIndex(m)];
            const double scale =
                mean_years / std::tgamma(1.0 + 1.0 / beta);
            components.push_back({scale, 1.0 / beta, group_id});
        }
    }

    LifetimeEstimate out;
    out.sofr_mttf_years = report.mttfYears();
    if (components.empty()) {
        out.mttf_years = out.median_years = out.p01_years =
            out.p99_years = 1e30;
        return out;
    }

    util::Rng rng(params_.seed);
    std::vector<double> minima;
    minima.reserve(params_.samples);
    util::RunningStat stat;
    std::vector<std::vector<double>> unit_times(groups.size());
    for (std::uint32_t i = 0; i < params_.samples; ++i) {
        for (auto &v : unit_times)
            v.clear();
        for (std::size_t g = 0; g < groups.size(); ++g)
            unit_times[g].assign(groups[g].units, 1e300);

        // Each unit of each group dies at its earliest mechanism.
        for (const auto &c : components) {
            auto &units = unit_times[c.group];
            for (auto &unit : units) {
                const double u = 1.0 - rng.uniform(); // (0, 1]
                const double t =
                    c.scale_years *
                    std::pow(-std::log(u), c.inv_beta);
                unit = std::min(unit, t);
            }
        }

        // A group dies at its (spares+1)-th unit failure; the
        // processor at its first group death.
        double lifetime_years = 1e300;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            auto &units = unit_times[g];
            const std::size_t k = groups[g].spares; // 0-indexed
            std::nth_element(units.begin(), units.begin() + k,
                             units.end());
            lifetime_years = std::min(lifetime_years, units[k]);
        }
        minima.push_back(lifetime_years);
        stat.add(lifetime_years);
    }
    std::sort(minima.begin(), minima.end());

    auto quantile = [&](double q) {
        const auto idx = static_cast<std::size_t>(
            q * static_cast<double>(minima.size() - 1));
        return minima[idx];
    };
    out.mttf_years = stat.mean();
    out.median_years = quantile(0.5);
    out.p01_years = quantile(0.01);
    out.p99_years = quantile(0.99);
    out.stddev_years = stat.stddev();
    return out;
}

double
serviceLifeHours(double service_life_years)
{
    return service_life_years * util::hours_per_year;
}

double
damageRatePerHour(double fit, double allocation_fit,
                  double service_life_years)
{
    if (allocation_fit <= 0.0 || service_life_years <= 0.0)
        return 0.0;
    return fit / (allocation_fit * serviceLifeHours(service_life_years));
}

} // namespace core
} // namespace ramp
