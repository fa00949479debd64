/**
 * @file
 * Lifetime trajectories under slack-banking versus steady-state DRM
 * (Sections 3.7 and 7): three duty-cycle scenarios -- a consumer
 * part running bursty, a server part pinned at full duty, and a
 * thermally-capped mobile part -- are aged epoch by epoch through
 * the damage-accumulation integrator (aging/damage.hh), with each
 * epoch's operating point chosen through the *unmodified* oracle
 * Selection API.
 *
 * The steady policy selects against the shipped qualification
 * temperature every epoch: it is safe by construction and leaves
 * the qualification margin on the table. The slack-banking policy
 * (aging/slack_bank.hh) selects against the effective qualification
 * temperature its banked slack affords: young chips run above the
 * steady-state-safe point, and the same selection calls throttle
 * them as integrated damage catches up with the age budget.
 *
 * The bench asserts the trade the policy promises: measurably
 * higher early-life performance than steady-state DRM in every
 * scenario, with the final consumed-lifetime fraction still at or
 * below 1.0. Either failing is a DEVIATION and a nonzero exit.
 *
 * Artifacts: BENCH_aging.json carries the full per-epoch trajectory
 * (consumed fraction, effective T_qual, chosen frequency, perf) for
 * every scenario x policy; --aging-state PATH additionally saves
 * the server scenario's final slack-policy AgingState in the
 * canonical format ramp_served --aging-state consumes.
 *
 * With a fault plan installed that arms sensor faults, the
 * integrator's view of each epoch's temperatures passes through a
 * SensorFaulter ("aging.temp" stream), so aging estimation under
 * sensor error is reproducible from (plan, seed).
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "aging/damage.hh"
#include "aging/slack_bank.hh"
#include "common.hh"
#include "fault/fault.hh"
#include "power/power.hh"
#include "util/constants.hh"
#include "util/table.hh"

namespace {

using namespace ramp;

/** One duty-cycle scenario. */
struct Scenario
{
    const char *name;
    /** Suite app index the scenario ages (mod the suite size). */
    std::size_t app;
    /** Thermal design cap, K; 0 = no DTM constraint. */
    double t_design_k;
    /** Active-duty fraction for epoch @p i. */
    double (*duty)(std::uint32_t i);
};

double
dutyBurst(std::uint32_t i)
{
    return i % 2 == 0 ? 0.9 : 0.1;
}

double
dutySustained(std::uint32_t)
{
    return 1.0;
}

double
dutyMobile(std::uint32_t)
{
    return 0.6;
}

/** One epoch of one policy's trajectory (artifact rows). */
struct EpochRecord
{
    double consumed_frac = 0.0;
    double t_qual_eff_k = 0.0;
    double frequency_ghz = 0.0;
    double perf_rel = 0.0;
};

/** One (scenario, policy) aging run's outcome. */
struct PolicyRun
{
    std::vector<EpochRecord> trajectory;
    double early_perf_rel = 0.0; ///< Mean over the first 20%.
    double final_consumed_frac = 0.0;
    double final_age_hours = 0.0;
    aging::AgingState state;
};

/** Index of the slowest valid point (the idle rung). */
std::size_t
idleIndex(const drm::ExploredApp &explored)
{
    std::size_t idle = 0;
    double best = 1e300;
    for (std::size_t i = 0; i < explored.points.size(); ++i) {
        const auto &p = explored.points[i];
        if (p.valid && p.op.config.frequency_ghz < best) {
            best = p.op.config.frequency_ghz;
            idle = i;
        }
    }
    return idle;
}

/**
 * Age one chip through @p num_epochs epochs of @p scenario under
 * one policy. A slack-banking policy is passed in; nullptr runs the
 * steady-state baseline (always the base T_qual). Damage is always
 * measured against the *shipped* qualification -- the policy only
 * moves the temperature the selection is made at.
 */
PolicyRun
agePolicy(const bench::Suite &suite,
          const drm::ExploredApp &explored, const Scenario &scenario,
          const aging::SlackBankPolicy *policy, double base_t_qual_k,
          std::uint32_t num_epochs, double epoch_years)
{
    const core::Qualification shipped =
        suite.qualification(base_t_qual_k);
    const sim::PerStructure<double> on_fractions =
        power::poweredFractions(sim::baseMachine());
    aging::DamageParams damage_params;
    aging::DamageIntegrator integrator(shipped, on_fractions,
                                       damage_params);

    // Sensor-faulted aging: when the installed plan arms sensor
    // faults, the integrator's temperature view passes through a
    // per-run faulter. Clean runs never construct it, so the clean
    // path is bit-identical to a build without fault hooks.
    const fault::FaultPlan *plan = fault::activeFaultPlan();
    std::optional<fault::SensorFaulter> temp_faulter;
    if (plan && fault::sensorFaultsArmed(*plan))
        temp_faulter.emplace(*plan, "aging.temp", base_t_qual_k);

    const std::size_t idle = idleIndex(explored);
    const double epoch_hours = epoch_years * util::hours_per_year;
    const std::uint32_t early_epochs =
        std::max<std::uint32_t>(1, num_epochs / 5);

    PolicyRun run;
    run.trajectory.reserve(num_epochs);
    double early_sum = 0.0;

    for (std::uint32_t i = 0; i < num_epochs; ++i) {
        const double t_eff_k =
            policy ? policy->effectiveTQualK(integrator.state())
                   : base_t_qual_k;
        const core::Qualification qual =
            suite.qualification(t_eff_k);
        drm::Selection sel = drm::selectDrm(explored, qual);
        if (scenario.t_design_k > 0.0) {
            // Thermally-capped part: the binding constraint is
            // whichever policy picks the slower point.
            const drm::Selection dtm =
                drm::selectDtm(explored, scenario.t_design_k, qual);
            if (dtm.config.frequency_ghz < sel.config.frequency_ghz)
                sel = dtm;
        }

        const double duty = scenario.duty(i);
        const auto integrate = [&](const core::OperatingPoint &op,
                                   double hours) {
            if (hours <= 0.0)
                return;
            if (!temp_faulter) {
                integrator.addInterval(op.temps_k, op.activity.activity,
                                       op.config.voltage_v,
                                       op.config.frequency_ghz,
                                       hours * 3600.0);
                return;
            }
            sim::PerStructure<double> temps = op.temps_k;
            for (auto &t : temps)
                t = temp_faulter->apply(t);
            integrator.addInterval(temps, op.activity.activity,
                                   op.config.voltage_v,
                                   op.config.frequency_ghz,
                                   hours * 3600.0);
        };
        integrate(explored.points[sel.index].op,
                  duty * epoch_hours);
        integrate(explored.points[idle].op,
                  (1.0 - duty) * epoch_hours);

        const double perf = sel.perf_rel * duty;
        if (i < early_epochs)
            early_sum += perf;

        EpochRecord rec;
        rec.consumed_frac = integrator.state().totalDamage();
        rec.t_qual_eff_k = t_eff_k;
        rec.frequency_ghz = sel.config.frequency_ghz;
        rec.perf_rel = perf;
        run.trajectory.push_back(rec);
    }

    run.early_perf_rel = early_sum / early_epochs;
    run.final_consumed_frac = integrator.state().totalDamage();
    run.final_age_hours = integrator.state().age_hours;
    run.state = integrator.state();
    return run;
}

util::JsonValue
policyJson(const char *name, const PolicyRun &run)
{
    using util::JsonValue;
    JsonValue trajectory = JsonValue::makeArray();
    for (const auto &rec : run.trajectory) {
        JsonValue row = JsonValue::makeObject();
        row.set("consumed", JsonValue::makeNumber(rec.consumed_frac));
        row.set("t_qual_eff_k",
                JsonValue::makeNumber(rec.t_qual_eff_k));
        row.set("frequency_ghz",
                JsonValue::makeNumber(rec.frequency_ghz));
        row.set("perf_rel", JsonValue::makeNumber(rec.perf_rel));
        trajectory.push(row);
    }
    JsonValue out = JsonValue::makeObject();
    out.set("policy", JsonValue::makeString(name));
    out.set("early_perf_rel",
            JsonValue::makeNumber(run.early_perf_rel));
    out.set("final_consumed",
            JsonValue::makeNumber(run.final_consumed_frac));
    out.set("final_age_hours",
            JsonValue::makeNumber(run.final_age_hours));
    out.set("trajectory", std::move(trajectory));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Suite suite(opts);

    constexpr double base_t_qual_k = 345.0;
    constexpr std::uint32_t num_epochs = 120;
    constexpr double epoch_years = 0.25; // 30-year service life.

    const Scenario scenarios[] = {
        {"consumer_burst", 0, 0.0, dutyBurst},
        {"server_sustained", 1, 0.0, dutySustained},
        {"mobile_throttled", 2, 360.0, dutyMobile},
    };

    const aging::SlackBankPolicy policy;

    util::JsonValue scenario_docs = util::JsonValue::makeArray();
    bool boost_holds = true;
    bool budget_holds = true;
    std::optional<aging::AgingState> reference_state;

    for (const Scenario &scenario : scenarios) {
        const workload::AppProfile &app =
            suite.apps[scenario.app % suite.apps.size()];
        const auto explored =
            suite.explorer.explore(app, drm::AdaptationSpace::Dvs);

        const PolicyRun steady =
            agePolicy(suite, explored, scenario, nullptr,
                      base_t_qual_k, num_epochs, epoch_years);
        const PolicyRun slack =
            agePolicy(suite, explored, scenario, &policy,
                      base_t_qual_k, num_epochs, epoch_years);

        util::Table t({"policy", "early perf", "final consumed",
                       "age (yr)"});
        t.setTitle(util::cat("Aging [", scenario.name, ", ",
                             app.name, "]: slack banking vs steady "
                             "DRM"));
        for (const auto &[name, run] :
             {std::pair<const char *, const PolicyRun *>{
                  "steady", &steady},
              {"slack-bank", &slack}}) {
            t.addRow({name, util::Table::num(run->early_perf_rel, 4),
                      util::Table::num(run->final_consumed_frac, 4),
                      util::Table::num(run->final_age_hours /
                                           util::hours_per_year,
                                       1)});
        }
        t.print(std::cout);

        const bool boosted =
            slack.early_perf_rel > steady.early_perf_rel;
        const bool budgeted = slack.final_consumed_frac <= 1.0 &&
                              steady.final_consumed_frac <= 1.0;
        boost_holds &= boosted;
        budget_holds &= budgeted;
        std::printf("  early-life boost: %+.2f%% (%s), budget: "
                    "%s\n\n",
                    100.0 * (slack.early_perf_rel /
                                 steady.early_perf_rel -
                             1.0),
                    boosted ? "ok" : "DEVIATION",
                    budgeted ? "ok" : "DEVIATION");

        if (std::string(scenario.name) == "server_sustained")
            reference_state = slack.state;

        util::JsonValue doc = util::JsonValue::makeObject();
        doc.set("scenario", util::JsonValue::makeString(
                                scenario.name));
        doc.set("app", util::JsonValue::makeString(app.name));
        doc.set("t_design_k",
                util::JsonValue::makeNumber(scenario.t_design_k));
        util::JsonValue policies = util::JsonValue::makeArray();
        policies.push(policyJson("steady", steady));
        policies.push(policyJson("slack-bank", slack));
        doc.set("policies", std::move(policies));
        scenario_docs.push(doc);
    }

    util::JsonValue artifact = util::JsonValue::makeObject();
    artifact.set("bench", util::JsonValue::makeString("aging"));
    artifact.set("num_epochs",
                 util::JsonValue::makeNumber(num_epochs));
    artifact.set("epoch_years",
                 util::JsonValue::makeNumber(epoch_years));
    artifact.set("t_qual_base_k",
                 util::JsonValue::makeNumber(base_t_qual_k));
    artifact.set("scenarios", std::move(scenario_docs));
    artifact.set("early_boost_holds",
                 util::JsonValue::makeBool(boost_holds));
    artifact.set("budget_holds",
                 util::JsonValue::makeBool(budget_holds));
    const bool artifact_ok = bench::writeBenchArtifact(
        bench::benchJsonPath(opts, "BENCH_aging.json"), artifact);

    if (!opts.aging_state_path.empty() && reference_state) {
        if (auto saved = aging::saveAgingState(opts.aging_state_path,
                                               *reference_state);
            !saved)
            util::warn(util::cat("--aging-state: ",
                                 saved.error().str()));
        else
            std::fprintf(stderr, "  aging state: %s\n",
                         opts.aging_state_path.c_str());
    }

    std::printf("slack banking beats steady early-life perf in all "
                "scenarios: %s\n",
                boost_holds ? "yes" : "DEVIATION");
    std::printf("final consumed lifetime <= 1.0 in all scenarios: "
                "%s\n",
                budget_holds ? "yes" : "DEVIATION");
    return boost_holds && budget_holds && artifact_ok ? 0 : 1;
}
