#include "core/fit.hh"

#include "util/constants.hh"
#include "util/logging.hh"

namespace ramp {
namespace core {

using sim::allStructures;
using sim::StructureId;
using sim::structureIndex;

double
FitReport::structureFit(StructureId s) const
{
    double t = 0.0;
    for (double v : fit[structureIndex(s)])
        t += v;
    return t;
}

double
FitReport::mechanismFit(Mechanism m) const
{
    double t = 0.0;
    for (auto s : allStructures())
        t += fit[structureIndex(s)][mechanismIndex(m)];
    return t;
}

double
FitReport::totalFit() const
{
    double t = 0.0;
    for (auto m : allMechanisms())
        t += mechanismFit(m);
    return t;
}

double
FitReport::mttfYears() const
{
    const double f = totalFit();
    return f > 0.0 ? util::fitToMttfYears(f) : 1e30;
}

void
checkFitInputs(const sim::PerStructure<double> &on_fractions,
               double em_j_scale)
{
    if (em_j_scale <= 0.0)
        util::fatal("EM current-density scale must be positive");
    for (double f : on_fractions)
        if (f < 0.0 || f > 1.0)
            util::fatal("powered-on fraction must be in [0,1]");
}

FitBasis::FitBasis(const sim::PerStructure<double> &on_fractions,
                   const sim::PerStructure<double> &temps_k,
                   const sim::PerStructure<double> &activity,
                   double voltage_v, double frequency_ghz,
                   double em_j_scale)
    : on_fraction(on_fractions)
{
    checkFitInputs(on_fractions, em_j_scale);
    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        OperatingConditions c;
        c.temp_k = temps_k[si];
        c.voltage_v = voltage_v;
        c.frequency_ghz = frequency_ghz;
        c.activity_af = activity[si];
        c.em_j_scale = em_j_scale;
        for (std::size_t mi = 0; mi < num_rated; ++mi)
            log_rate[si][mi] = logRelativeRate(allMechanisms()[mi], c);
    }
}

} // namespace core
} // namespace ramp
