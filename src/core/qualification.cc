#include "core/qualification.hh"

#include <cmath>

#include "util/logging.hh"

namespace ramp {
namespace core {

using sim::allStructures;
using sim::StructureId;
using sim::structureIndex;

Qualification::Qualification(QualificationSpec spec) : spec_(spec)
{
    if (spec_.target_fit <= 0.0)
        util::fatal("qualification target FIT must be positive");
    if (spec_.t_qual_k <= spec_.ambient_k)
        util::fatal(util::cat("T_qual (", spec_.t_qual_k,
                              " K) must exceed ambient (",
                              spec_.ambient_k, " K)"));
    if (spec_.v_qual_v <= 0.0 || spec_.f_qual_ghz <= 0.0)
        util::fatal("qualification voltage/frequency must be positive");

    // Budget split: even across mechanisms, area-proportional across
    // structures (Section 3.7).
    const double per_mechanism =
        spec_.target_fit / static_cast<double>(num_mechanisms);
    const double total_area = sim::totalCoreArea();

    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        const double share = sim::structureArea(s) / total_area;
        const OperatingConditions qc = qualConditions(s);
        for (auto m : allMechanisms()) {
            const std::size_t mi = mechanismIndex(m);
            alloc_[si][mi] = per_mechanism * share;
            log_rate_qual_[si][mi] = logRelativeRate(m, qc);
        }
    }
}

OperatingConditions
Qualification::qualConditions(StructureId s) const
{
    OperatingConditions c;
    c.temp_k = spec_.t_qual_k;
    c.voltage_v = spec_.v_qual_v;
    c.frequency_ghz = spec_.f_qual_ghz;
    c.activity_af = spec_.alpha_qual[structureIndex(s)];
    c.ambient_k = spec_.ambient_k;
    c.em_j_scale = spec_.em_j_scale_qual;
    return c;
}

double
Qualification::allocation(StructureId s, Mechanism m) const
{
    return alloc_[structureIndex(s)][mechanismIndex(m)];
}

double
Qualification::fit(StructureId s, Mechanism m,
                   const OperatingConditions &actual,
                   double on_fraction) const
{
    return priced(structureIndex(s), m, logRelativeRate(m, actual),
                  on_fraction);
}

double
Qualification::priced(std::size_t si, Mechanism m, double log_rate,
                      double on_fraction) const
{
    const std::size_t mi = mechanismIndex(m);
    const double log_ratio = log_rate - log_rate_qual_[si][mi];
    double f = alloc_[si][mi] * std::exp(log_ratio);
    // Power gating removes current and field from the gated area:
    // EM and TDDB scale with the powered-on fraction (Section 6.1).
    if (m == Mechanism::EM || m == Mechanism::TDDB)
        f *= on_fraction;
    return f;
}

double
Qualification::pricedEntry(std::size_t si, std::size_t mi,
                           const FitBasis &basis,
                           const sim::PerStructure<double> &temps_k) const
{
    if (mi < FitBasis::num_rated)
        return priced(si, allMechanisms()[mi], basis.log_rate[si][mi],
                      basis.on_fraction[si]);
    OperatingConditions tc;
    tc.temp_k = temps_k[si];
    tc.ambient_k = spec_.ambient_k;
    return priced(si, Mechanism::TC, logRelativeRate(Mechanism::TC, tc),
                  basis.on_fraction[si]);
}

FitReport
Qualification::price(const FitBasis &basis,
                     const sim::PerStructure<double> &temps_k) const
{
    FitReport r;
    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        for (std::size_t mi = 0; mi < num_mechanisms; ++mi)
            r.fit[si][mi] = pricedEntry(si, mi, basis, temps_k);
        r.avg_temp_k[si] = temps_k[si];
    }
    r.total_time_s = 1.0;
    return r;
}

double
Qualification::fitWithin(const FitBasis &basis,
                         const sim::PerStructure<double> &temps_k,
                         double limit) const
{
    // FitReport::totalFit(): a sum over mechanisms of per-mechanism
    // sums over structures. total + partial never exceeds the final
    // total, so once it passes the limit the total does too.
    double total = 0.0;
    for (auto m : allMechanisms()) {
        const std::size_t mi = mechanismIndex(m);
        double partial = 0.0;
        for (auto s : allStructures()) {
            partial += pricedEntry(structureIndex(s), mi, basis, temps_k);
            if (total + partial > limit)
                return total + partial;
        }
        total += partial;
    }
    return total;
}

} // namespace core
} // namespace ramp
