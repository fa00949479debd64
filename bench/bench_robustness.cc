/**
 * @file
 * Robustness campaign: fault injection against the closed-loop
 * DRM/DTM control path and the oracle exploration path.
 *
 * Sweeps fault kind x rate (plus an everything-at-once plan) and
 * asserts the graceful-degradation safety invariants:
 *
 *  - no campaign aborts (the process reaching its summary is itself
 *    part of the check);
 *  - DTM: the TRUE hottest-block temperature stays within
 *    T_design + guard on every interval, whatever the sensor claims;
 *  - DRM: the final lifetime-average FIT lands within 5% of target;
 *  - every injected fault is accounted for by the fault.* telemetry
 *    counters (no silent injection, no silent drop);
 *  - corrupted eval-cache records are quarantined, never trusted:
 *    a corrupted cache changes re-simulation cost, not results;
 *  - forced thermal non-convergence never steers the DRM selection.
 *
 * With --fault-plan the sweep is replaced by a single campaign under
 * the given plan. Exit status is nonzero on any violation (printed as
 * DEVIATION in the table).
 */

#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common.hh"
#include "drm/transient.hh"
#include "fault/fault.hh"
#include "util/table.hh"

namespace {

using namespace ramp;

/** Snake-case counter name ("fault.sensor_noise") for a kind. */
std::string
faultCounterName(fault::FaultKind kind)
{
    std::string name = fault::faultKindName(kind);
    for (char &c : name)
        if (c == '-')
            c = '_';
    return "fault." + name;
}

/** Sum of all fault.* injection counters right now. */
double
injectedCounterTotal()
{
    const auto snap = telemetry::Registry::instance().snapshot();
    double total = 0.0;
    for (std::size_t k = 0; k < fault::num_fault_kinds; ++k)
        total += snap.counter(
            faultCounterName(static_cast<fault::FaultKind>(k)));
    return total;
}

core::Qualification
makeQual(double t_qual_k)
{
    core::QualificationSpec s;
    s.t_qual_k = t_qual_k;
    s.alpha_qual.fill(0.5);
    return core::Qualification(s);
}

/** Shared controls for every transient campaign: short enough to
 *  sweep, long enough for both controllers to settle. */
drm::TransientParams
campaignParams()
{
    drm::TransientParams p;
    p.interval_uops = 20'000;
    p.warmup_uops = 60'000;
    p.num_intervals = 100;
    p.represented_time_s = 0.5;
    // Above gzip's base-level temperature: DTM regulates from below
    // (climbing the ladder into the band), so the cold start never
    // violates the limit and the every-interval invariant is
    // meaningful for the whole run. gzip is the steadiest hot-ish
    // app (its per-interval phase swings stay under ~3 K; reactive
    // control cannot bound an app that jumps 30 K between samples).
    p.dtm.t_design_k = 356.0;
    // One DVS step moves gzip's hottest block by ~3-4 K, so the
    // guard band must cover a whole rung: a reactive controller on a
    // discrete ladder cannot regulate tighter than its step size.
    p.dtm.guard_k = 4.0;
    return p;
}

struct CampaignRow
{
    std::string name;
    const char *policy = "";
    drm::TransientResult::Degradation deg;
    double counter_delta = 0.0;
    double worst_metric = 0.0; ///< Temp excess (K) or FIT error (%).
    bool ok = true;
};

/** Run one faulted transient campaign under the installed plan. */
CampaignRow
runTransient(const std::string &name, drm::Policy policy)
{
    const drm::TransientParams params = campaignParams();
    const drm::TransientRunner runner(params);

    CampaignRow row;
    row.name = name;
    row.policy = policy == drm::Policy::Dtm ? "DTM" : "DRM";

    const double before = injectedCounterTotal();
    drm::TransientResult res;
    if (policy == drm::Policy::Dtm) {
        res = runner.run(workload::findApp("gzip"), makeQual(380.0),
                         policy);
        // Safety invariant on the TRUE temperature, every interval.
        const double limit =
            params.dtm.t_design_k + params.dtm.guard_k;
        for (const auto &s : res.trace)
            row.worst_metric =
                std::max(row.worst_metric, s.max_temp_k - limit);
        row.ok = row.worst_metric <= 0.0;
    } else {
        // Qualified below the app's natural point: DRM must actively
        // steer the lifetime average onto the target.
        res = runner.run(workload::findApp("MP3dec"), makeQual(355.0),
                         policy);
        // Signed error; overspending the wear budget is the unsafe
        // direction and gets the tight bound. Undershoot is merely
        // conservative and is bounded by the controller's own
        // hysteresis dead band: it only steps up below
        // up_margin x target, so any average in [0.90, 1.02] x
        // target is a legitimate steady state even with perfect
        // sensors, and faults may settle it anywhere in that band.
        row.worst_metric = 100.0 *
                           (res.final_avg_fit -
                            params.drm.target_fit) /
                           params.drm.target_fit;
        row.ok = row.worst_metric <= 5.0 &&
                 row.worst_metric >=
                     -100.0 * params.drm.up_margin;
    }
    row.deg = res.degradation;
    row.counter_delta = injectedCounterTotal() - before;
    // Accounting invariant: the run's own tally of injected faults
    // matches the process-wide telemetry counters exactly.
    row.ok = row.ok &&
             row.counter_delta ==
                 static_cast<double>(row.deg.injected_faults);
    return row;
}

/** One fault kind armed at one rate. */
fault::FaultPlan
singleKindPlan(fault::FaultKind kind, double rate, std::uint64_t seed)
{
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.spec(kind).rate = rate;
    return plan;
}

/**
 * Corrupted-cache campaign: explore the Arch space (18 distinct
 * timing keys; the DVS ladder shares one) cold while cache
 * writes are being garbled, then reload (quarantining bad lines) and
 * re-explore clean. The final selection must be identical to a
 * never-faulted exploration: corruption costs re-simulation, never
 * correctness.
 */
bool
cacheCorruptionCampaign(const bench::Options &opts,
                        const fault::FaultPlan &plan)
{
    const std::string path = "ramp_robustness_cache.txt";
    const auto &app = workload::findApp("gzip");
    const auto qual = makeQual(370.0);
    const auto wipe = [&] {
        std::remove(path.c_str());
        std::remove((path + ".lock").c_str());
        std::remove((path + ".quarantine").c_str());
    };

    wipe();
    fault::clearFaultPlan();
    drm::Selection clean_sel;
    {
        drm::EvaluationCache cache(path);
        drm::OracleExplorer ex(bench::benchEvalParams(opts), &cache);
        clean_sel = drm::selectDrm(ex.explore(
                                       app, drm::AdaptationSpace::Arch),
                                   qual);
    }

    wipe();
    fault::installFaultPlan(plan);
    const double before = injectedCounterTotal();
    {
        drm::EvaluationCache cache(path);
        drm::OracleExplorer ex(bench::benchEvalParams(opts), &cache);
        ex.explore(app, drm::AdaptationSpace::Arch);
    }
    const double corrupted = injectedCounterTotal() - before;
    fault::clearFaultPlan();

    std::size_t quarantined = 0;
    drm::Selection sel;
    {
        drm::EvaluationCache cache(path);
        quarantined = cache.stats().quarantined;
        drm::OracleExplorer ex(bench::benchEvalParams(opts), &cache);
        sel = drm::selectDrm(ex.explore(app,
                                        drm::AdaptationSpace::Arch),
                             qual);
    }
    wipe();

    const bool identical =
        sel.index == clean_sel.index && sel.fit == clean_sel.fit &&
        sel.config.frequency_ghz == clean_sel.config.frequency_ghz;
    const bool ok = corrupted > 0.0 && quarantined > 0 && identical;
    std::printf("  cache-corrupt: %.0f records garbled, %zu lines "
                "quarantined on reload, selection %s -> %s\n",
                corrupted, quarantined,
                identical ? "identical" : "DIVERGED",
                ok ? "ok" : "DEVIATION");
    return ok;
}

/**
 * Forced-non-convergence campaign: explore with the thermal fixed
 * point randomly reported as unconverged. DRM must exclude every such
 * point from its selection; the counter must account for each one.
 */
bool
nonConvergenceCampaign(const bench::Options &opts,
                       const fault::FaultPlan &plan)
{
    const auto &app = workload::findApp("gzip");
    const auto qual = makeQual(370.0);

    fault::installFaultPlan(plan);
    const double before = injectedCounterTotal();
    drm::OracleExplorer ex(bench::benchEvalParams(opts));
    const auto explored = ex.explore(app, drm::AdaptationSpace::Arch);
    const double forced = injectedCounterTotal() - before;
    fault::clearFaultPlan();

    std::size_t unconverged = 0;
    for (const auto &pt : explored.points)
        unconverged += pt.valid && !pt.op.converged;
    const std::size_t base_unconverged = !explored.base.converged;

    const auto sel = drm::selectDrm(explored, qual);
    const bool winner_converged = sel.converged;
    const bool accounted =
        forced ==
        static_cast<double>(unconverged + base_unconverged);
    const bool ok = unconverged > 0 && winner_converged && accounted;
    std::printf("  non-convergence: %zu/%zu points forced "
                "unconverged (%.0f counted), DRM winner converged: "
                "%s -> %s\n",
                unconverged, explored.points.size(), forced,
                winner_converged ? "yes" : "NO",
                ok ? "ok" : "DEVIATION");
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace ramp;
    const auto opts = bench::Options::parse(argc, argv);

    std::vector<CampaignRow> rows;

    // Single-campaign mode under a --fault-plan (already installed by
    // Options::parse); otherwise the built-in kind x rate sweep.
    const bool cli_mode = fault::activeFaultPlan() != nullptr;
    const fault::FaultPlan cli_plan =
        cli_mode ? *fault::activeFaultPlan() : fault::FaultPlan{};

    if (cli_mode) {
        rows.push_back(runTransient("cli-plan", drm::Policy::Dtm));
        rows.push_back(runTransient("cli-plan", drm::Policy::Drm));
    } else {
        // Clean reference rows: zero injections, invariants hold.
        fault::clearFaultPlan();
        rows.push_back(runTransient("clean", drm::Policy::Dtm));
        rows.push_back(runTransient("clean", drm::Policy::Drm));

        const fault::FaultKind sensor_kinds[] = {
            fault::FaultKind::SensorNoise,
            fault::FaultKind::SensorQuantize,
            fault::FaultKind::SensorStuck,
            fault::FaultKind::SensorDropout,
            fault::FaultKind::SensorDelay,
            fault::FaultKind::PowerNan,
        };
        const double rates[] = {0.02, 0.05, 0.10};
        for (const auto kind : sensor_kinds) {
            for (const double rate : rates) {
                fault::installFaultPlan(
                    singleKindPlan(kind, rate, opts.seed));
                const std::string name = util::cat(
                    fault::faultKindName(kind), " @",
                    util::Table::num(rate, 2));
                rows.push_back(runTransient(name, drm::Policy::Dtm));
                rows.push_back(runTransient(name, drm::Policy::Drm));
            }
        }

        // Everything at once, each sensor kind at 10%.
        fault::FaultPlan storm;
        storm.seed = opts.seed;
        for (const auto kind : sensor_kinds)
            storm.spec(kind).rate = 0.10;
        fault::installFaultPlan(storm);
        rows.push_back(runTransient("all-sensor @0.10",
                                    drm::Policy::Dtm));
        rows.push_back(runTransient("all-sensor @0.10",
                                    drm::Policy::Drm));
        fault::clearFaultPlan();
    }

    util::Table t({"campaign", "policy", "injected", "invalid",
                   "fallback", "despiked", "failsafe", "pwr-hold",
                   "worst", "verdict"});
    t.setTitle("Robustness: safety invariants under fault injection");
    bool all_ok = true;
    for (const auto &r : rows) {
        all_ok &= r.ok;
        t.addRow({r.name, r.policy,
                  std::to_string(r.deg.injected_faults),
                  std::to_string(r.deg.invalid_readings),
                  std::to_string(r.deg.fallbacks),
                  std::to_string(r.deg.despiked),
                  std::to_string(r.deg.failsafe_intervals),
                  std::to_string(r.deg.power_holds),
                  util::Table::num(r.worst_metric, 2),
                  r.ok ? "ok" : "DEVIATION"});
    }
    t.print(std::cout);
    std::printf("  (worst: DTM = true-temp excess over "
                "T_design + guard in K, DRM = signed final avg FIT "
                "error vs target in %%,\n   bounded +5%% on "
                "overspend and by the controller's hysteresis band "
                "on undershoot)\n\n");

    bool oracle_ok = true;
    if (!cli_mode || cli_plan.enabled(fault::FaultKind::CacheCorrupt))
        oracle_ok &= cacheCorruptionCampaign(
            opts, cli_mode ? cli_plan
                           : singleKindPlan(
                                 fault::FaultKind::CacheCorrupt, 0.25,
                                 opts.seed));
    if (!cli_mode ||
        cli_plan.enabled(fault::FaultKind::NonConvergence))
        oracle_ok &= nonConvergenceCampaign(
            opts, cli_mode ? cli_plan
                           : singleKindPlan(
                                 fault::FaultKind::NonConvergence,
                                 0.3, opts.seed));

    all_ok &= oracle_ok;
    std::printf("\nRobustness invariants: %s\n",
                all_ok ? "hold" : "DEVIATION");
    return all_ok ? 0 : 1;
}
