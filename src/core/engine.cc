#include "core/engine.hh"

#include "util/logging.hh"

namespace ramp {
namespace core {

using sim::allStructures;
using sim::structureIndex;

RampEngine::RampEngine(Qualification qual,
                       sim::PerStructure<double> on_fractions,
                       double em_j_scale)
    : qual_(std::move(qual)), on_frac_(on_fractions),
      em_j_scale_(em_j_scale)
{
    checkFitInputs(on_frac_, em_j_scale);
}

void
RampEngine::addInterval(const sim::PerStructure<double> &temps_k,
                        const sim::PerStructure<double> &activity,
                        double voltage_v, double frequency_ghz,
                        double duration_s)
{
    if (duration_s <= 0.0)
        util::fatal("RampEngine interval duration must be positive");

    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        OperatingConditions c;
        c.temp_k = temps_k[si];
        c.voltage_v = voltage_v;
        c.frequency_ghz = frequency_ghz;
        c.activity_af = activity[si];
        c.ambient_k = qual_.spec().ambient_k;
        c.em_j_scale = em_j_scale_;

        // Instantaneous FIT per interval for the three "live"
        // mechanisms; TC is handled from the run-average temperature.
        rate_acc_[si][0].add(qual_.fit(s, Mechanism::EM, c,
                                       on_frac_[si]), duration_s);
        rate_acc_[si][1].add(qual_.fit(s, Mechanism::SM, c,
                                       on_frac_[si]), duration_s);
        rate_acc_[si][2].add(qual_.fit(s, Mechanism::TDDB, c,
                                       on_frac_[si]), duration_s);
        temp_acc_[si].add(c.temp_k, duration_s);
        act_acc_[si].add(c.activity_af, duration_s);
    }
    ++intervals_;
}

FitReport
RampEngine::report() const
{
    FitReport r;
    if (intervals_ == 0)
        return r;

    for (auto s : allStructures()) {
        const std::size_t si = structureIndex(s);
        r.fit[si][mechanismIndex(Mechanism::EM)] =
            rate_acc_[si][0].mean();
        r.fit[si][mechanismIndex(Mechanism::SM)] =
            rate_acc_[si][1].mean();
        r.fit[si][mechanismIndex(Mechanism::TDDB)] =
            rate_acc_[si][2].mean();

        // Thermal cycling: whole-run average temperature vs ambient
        // (Section 3.6).
        OperatingConditions c;
        c.temp_k = temp_acc_[si].mean();
        c.voltage_v = qual_.spec().v_qual_v;
        c.frequency_ghz = qual_.spec().f_qual_ghz;
        c.activity_af = act_acc_[si].mean();
        c.ambient_k = qual_.spec().ambient_k;
        c.em_j_scale = em_j_scale_;
        r.fit[si][mechanismIndex(Mechanism::TC)] =
            qual_.fit(s, Mechanism::TC, c, on_frac_[si]);

        r.avg_temp_k[si] = temp_acc_[si].mean();
        r.total_time_s = temp_acc_[si].totalTime();
    }
    return r;
}

void
RampEngine::reset()
{
    for (auto &per_struct : rate_acc_)
        for (auto &acc : per_struct)
            acc.reset();
    for (auto &acc : temp_acc_)
        acc.reset();
    for (auto &acc : act_acc_)
        acc.reset();
    intervals_ = 0;
}

FitReport
combineReports(const std::vector<FitReport> &reports,
               const std::vector<double> &weights)
{
    if (reports.empty() || reports.size() != weights.size())
        util::fatal("combineReports needs matching nonempty "
                    "reports/weights");
    double total_w = 0.0;
    for (double w : weights) {
        if (w <= 0.0)
            util::fatal("workload weights must be positive");
        total_w += w;
    }

    FitReport out;
    for (std::size_t r = 0; r < reports.size(); ++r) {
        const double share = weights[r] / total_w;
        for (auto s : allStructures()) {
            const std::size_t si = structureIndex(s);
            for (auto m : allMechanisms()) {
                const std::size_t mi = mechanismIndex(m);
                out.fit[si][mi] += share * reports[r].fit[si][mi];
            }
            out.avg_temp_k[si] +=
                share * reports[r].avg_temp_k[si];
        }
        out.total_time_s += reports[r].total_time_s;
    }
    return out;
}

FitReport
steadyFit(const Qualification &qual,
          const sim::PerStructure<double> &on_fractions,
          const sim::PerStructure<double> &temps_k,
          const sim::PerStructure<double> &activity, double voltage_v,
          double frequency_ghz, double em_j_scale)
{
    return qual.price(FitBasis(on_fractions, temps_k, activity,
                               voltage_v, frequency_ghz, em_j_scale),
                      temps_k);
}

} // namespace core
} // namespace ramp
