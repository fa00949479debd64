#include "aging/damage.hh"

#include <algorithm>
#include <utility>

#include "core/lifetime.hh"
#include "util/constants.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace aging {

using core::Mechanism;
using core::OperatingConditions;
using sim::allStructures;
using sim::StructureId;
using sim::structureIndex;

namespace {

const telemetry::Counter &
intervalCounter()
{
    static const telemetry::Counter c =
        telemetry::counter("aging.intervals");
    return c;
}

inline constexpr std::size_t num_pairs =
    sim::num_structures * core::num_mechanisms;

/** Operating conditions of one structure during one epoch (the same
 *  construction RampEngine::addInterval uses). */
OperatingConditions
epochConditions(const core::Qualification &qual, std::size_t si,
                const StressEpoch &epoch)
{
    OperatingConditions c;
    c.temp_k = epoch.temps_k[si];
    c.voltage_v = epoch.voltage_v;
    c.frequency_ghz = epoch.frequency_ghz;
    c.activity_af = epoch.activity[si];
    c.ambient_k = qual.spec().ambient_k;
    c.em_j_scale = qual.spec().em_j_scale_qual;
    return c;
}

/** Damage one pair accrues over one epoch. TC is charged
 *  incrementally -- each epoch is one excursion from ambient to the
 *  epoch temperature, rated at the epoch's conditions -- so partial
 *  histories stay meaningful. */
double
pairEpochDamage(const core::Qualification &qual,
                const sim::PerStructure<double> &on_frac,
                const DamageParams &params, StructureId s,
                Mechanism m, const StressEpoch &epoch)
{
    const std::size_t si = structureIndex(s);
    const OperatingConditions c = epochConditions(qual, si, epoch);
    const double fit = qual.fit(s, m, c, on_frac[si]);
    const double hours = epoch.duration_s / util::seconds_per_hour;
    return core::damageRatePerHour(fit, qual.allocation(s, m),
                                   params.service_life_years) *
           hours;
}

} // namespace

DamageIntegrator::DamageIntegrator(
    core::Qualification qual, sim::PerStructure<double> on_fractions,
    DamageParams params)
    : qual_(std::move(qual)), on_frac_(on_fractions), params_(params)
{
    if (params_.service_life_years <= 0.0)
        util::fatal("damage model service life must be positive");
    for (double f : on_frac_)
        if (f < 0.0 || f > 1.0)
            util::fatal("powered-on fraction must be in [0,1]");
}

void
DamageIntegrator::addInterval(
    const sim::PerStructure<double> &temps_k,
    const sim::PerStructure<double> &activity, double voltage_v,
    double frequency_ghz, double duration_s)
{
    StressEpoch epoch;
    epoch.temps_k = temps_k;
    epoch.activity = activity;
    epoch.voltage_v = voltage_v;
    epoch.frequency_ghz = frequency_ghz;
    epoch.duration_s = duration_s;
    integrate({epoch}, nullptr);
}

void
DamageIntegrator::setState(AgingState state)
{
    state_ = std::move(state);
}

void
DamageIntegrator::integrate(const std::vector<StressEpoch> &epochs,
                            util::ThreadPool *pool)
{
    for (const auto &epoch : epochs)
        if (epoch.duration_s <= 0.0)
            util::fatal("damage epoch duration must be positive");

    // Each (structure, mechanism) pair walks the epochs in order
    // into its own slot; the fan is over pairs, not epochs, so the
    // arithmetic (and hence the bits) cannot depend on the thread
    // count.
    std::array<double, num_pairs> deltas{};
    auto integrate_pair = [&](std::size_t p) {
        const StructureId s =
            static_cast<StructureId>(p / core::num_mechanisms);
        const Mechanism m =
            static_cast<Mechanism>(p % core::num_mechanisms);
        double sum = 0.0;
        for (const auto &epoch : epochs)
            sum += pairEpochDamage(qual_, on_frac_, params_, s, m,
                                   epoch);
        deltas[p] = sum;
    };
    if (pool) {
        (void)pool->parallelFor(num_pairs, integrate_pair);
    } else {
        for (std::size_t p = 0; p < num_pairs; ++p)
            integrate_pair(p);
    }
    for (std::size_t p = 0; p < num_pairs; ++p)
        state_.damage[p / core::num_mechanisms]
                     [p % core::num_mechanisms] += deltas[p];

    // Stress-history diagnostics and the age clock are serial (cheap
    // sums over structures).
    for (const auto &epoch : epochs) {
        const double hours =
            epoch.duration_s / util::seconds_per_hour;
        for (auto s : allStructures()) {
            const std::size_t si = structureIndex(s);
            const double alpha =
                std::clamp(epoch.activity[si], 0.0, 1.0);
            // Same current-density proxy as core/mechanisms.cc
            // (clock switching keeps a 10% floor when gated).
            state_.em_jt_hours[si] += (0.1 + 0.9 * alpha) *
                                      epoch.voltage_v *
                                      epoch.frequency_ghz * hours;
            state_.tddb_vt_hours[si] += epoch.voltage_v * hours;
            state_.tc_cycles[si] += 1.0;
        }
        state_.age_hours += hours;
        intervalCounter().add();
    }
}

} // namespace aging
} // namespace ramp
