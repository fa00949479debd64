#include "cmp/evaluator.hh"

#include <algorithm>
#include <utility>

#include "cmp/telemetry.hh"
#include "power/power.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace cmp {

using sim::PerStructure;

double
ChipOperatingPoint::uopsPerSecond() const
{
    double sum = 0.0;
    for (const auto &op : cores)
        sum += op.uopsPerSecond();
    return sum;
}

double
ChipOperatingPoint::maxTemp() const
{
    double m = cores[0].maxTemp();
    for (const auto &op : cores)
        m = std::max(m, op.maxTemp());
    return m;
}

ChipEvaluator::ChipEvaluator(const ChipFloorplan &floorplan,
                             const drm::OracleExplorer *explorer,
                             util::ThreadPool *pool)
    : thermal_(floorplan.origins(),
               explorer->evaluator().params().thermal_params),
      explorer_(explorer), pool_(pool)
{
}

util::Result<ChipOperatingPoint>
ChipEvaluator::tryEvaluate(
    const std::vector<const workload::AppProfile *> &apps,
    const std::vector<sim::MachineConfig> &cfgs) const
{
    const std::size_t n = numCores();
    if (apps.size() != n || cfgs.size() != n)
        util::panic(util::cat("chip evaluation got ", apps.size(),
                              " apps and ", cfgs.size(),
                              " configs for ", n, " cores"));
    static const telemetry::Counter converge_calls =
        telemetry::counter("cmp.converge_calls");
    static const telemetry::Counter non_converged =
        telemetry::counter("cmp.non_converged");

    // Per-core timing (plus the cached single-core fixed point),
    // fanned across the pool; results land by core index, failures
    // come back by index, so the outcome is identical at any thread
    // count.
    ChipOperatingPoint chip;
    chip.cores.resize(n);
    std::vector<std::pair<std::size_t, util::RampError>> failures;
    const auto eval_one = [&](std::size_t i) {
        coreCounter(i, "evals").add();
        auto r = explorer_->tryEvaluate(cfgs[i], *apps[i]);
        if (!r)
            throw util::RampException(r.error());
        chip.cores[i] = std::move(r.value());
    };
    if (pool_ != nullptr) {
        const util::BatchReport report =
            pool_->parallelFor(n, eval_one);
        failures = report.failures;
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            try {
                eval_one(i);
            } catch (const util::RampException &e) {
                failures.emplace_back(i, e.error());
            }
        }
    }
    if (!failures.empty())
        return util::RampError{
            failures.front().second.code,
            util::cat("core ", failures.front().first, ": ",
                      failures.front().second.message)};

    // One coupled power/thermal fixed point over the chip network.
    const core::EvalParams &params = explorer_->evaluator().params();
    std::vector<power::PowerModel> pmodels;
    pmodels.reserve(n);
    std::vector<PerStructure<double>> dyn;
    for (std::size_t c = 0; c < n; ++c) {
        pmodels.emplace_back(cfgs[c], params.power_params);
        dyn.push_back(pmodels[c].dynamicPower(chip.cores[c].activity));
    }
    converge_calls.add();
    auto result = core::tryConvergeLeakage(thermal_, pmodels, dyn, params);
    if (!result)
        return result.error();
    const core::ThermalFixedPoint &fp = result.value();

    chip.converged = fp.converged;
    if (!chip.converged)
        non_converged.add();
    chip.sink_temp_k = fp.sink_k;
    for (std::size_t c = 0; c < n; ++c) {
        core::OperatingPoint &op = chip.cores[c];
        op.temps_k = fp.temps_k[c];
        op.sink_temp_k = fp.sink_k;
        op.converged = chip.converged;
        op.power = fp.power[c];
    }
    return chip;
}

} // namespace cmp
} // namespace ramp
