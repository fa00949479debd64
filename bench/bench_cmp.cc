/**
 * @file
 * Multi-core RAMP: chip throughput under per-core versus global FIT
 * budgeting, and cross-core wear-leveling, on the coupled CMP model
 * (src/cmp) -- the chip-level extension of the paper's single-core
 * scheme.
 *
 * Three duty mixes -- a consumer part running a bursty integer mix, a
 * server part pinned at full duty on a hot/cool mix, and a mobile
 * part running media codecs at partial duty -- are selected and aged
 * at 2, 4, and 8 cores (overridable with --cores or an explicit
 * --floorplan JSON). Each mix assigns one suite application per core;
 * every core's adaptation space is explored through the *unmodified*
 * oracle and the chip selection is made twice under the SAME chip FIT
 * budget (N x the single-core 4000 FIT target):
 *
 *  - per-core: static equal shares, cores isolated -- the paper's
 *    scheme replicated N ways;
 *  - global: cool cores' unused FIT headroom funds hot cores'
 *    frequency (cmp/chip_drm.hh).
 *
 * The bench asserts the reallocation promise: global chip throughput
 * is never below per-core at equal chip FIT. It then ages each mix
 * epoch by epoch through per-core damage integrators fed by the
 * chip-coupled temperatures (cmp/evaluator.hh), with and without the
 * hysteretic wear-leveling migration policy (cmp/wear.hh), and
 * asserts leveling narrows the max - min consumed-lifetime spread.
 * Either failing is a DEVIATION and a nonzero exit.
 *
 * Artifacts: BENCH_cmp.json carries, per (mix, core count), both
 * policies' selections (throughput, summed FIT, per-core budgets) and
 * both aging runs' final spreads and migration counts.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "cmp/chip_drm.hh"
#include "cmp/evaluator.hh"
#include "cmp/wear.hh"
#include "common.hh"
#include "util/constants.hh"
#include "util/table.hh"

namespace {

using namespace ramp;

/** One duty-mix scenario: which apps share the chip, at what duty. */
struct Scenario
{
    const char *name;
    /** Suite app index per core slot (cycled, mod the suite size). */
    std::vector<std::size_t> slots;
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

/** Both policies' selections for one (scenario, chip) pair. */
struct SelectionPair
{
    cmp::ChipSelection per_core;
    cmp::ChipSelection global;
    double budget_fit = 0.0;
};

/** One wear-leveling aging run's outcome. */
struct WearRun
{
    double spread_frac = 0.0;
    std::uint64_t migrations = 0;
    std::vector<double> consumed; ///< Per-core final fraction.
};

/**
 * Age one chip through @p num_epochs epochs of @p scenario's duty
 * cycle, each core running its assigned app at its globally-selected
 * operating point, damage fed by the chip-coupled temperatures.
 * @p level turns the migration policy on; off keeps the static
 * assignment, isolating the policy's effect on the spread.
 *
 * Chip points are memoized per assignment: migrations only permute
 * the (app, config) pairs across tiles, so a run revisits few
 * distinct chip configurations.
 */
WearRun
ageChip(const cmp::ChipEvaluator &chip,
        const std::vector<const workload::AppProfile *> &apps,
        const std::vector<sim::MachineConfig> &cfgs,
        const core::Qualification &qual, const Scenario &scenario,
        const cmp::WearParams &params, bool level,
        std::uint32_t num_epochs, double epoch_years)
{
    const std::size_t n = apps.size();
    cmp::WearLeveler leveler(qual, n, params);

    std::vector<std::size_t> assignment(n);
    for (std::size_t c = 0; c < n; ++c)
        assignment[c] = c;

    std::map<std::vector<std::size_t>, cmp::ChipOperatingPoint>
        points;
    const auto point_for =
        [&](const std::vector<std::size_t> &assign)
        -> const cmp::ChipOperatingPoint & {
        auto it = points.find(assign);
        if (it != points.end())
            return it->second;
        std::vector<const workload::AppProfile *> placed_apps(n);
        std::vector<sim::MachineConfig> placed_cfgs(n);
        for (std::size_t c = 0; c < n; ++c) {
            placed_apps[c] = apps[assign[c]];
            placed_cfgs[c] = cfgs[assign[c]];
        }
        auto pt = chip.tryEvaluate(placed_apps, placed_cfgs);
        if (!pt.ok())
            throw util::RampException(pt.error());
        return points.emplace(assign, std::move(pt.value()))
            .first->second;
    };

    const double epoch_hours =
        epoch_years * util::hours_per_year;
    for (std::uint32_t i = 0; i < num_epochs; ++i) {
        const cmp::ChipOperatingPoint &pt = point_for(assignment);
        const double hours = scenario.duty(i) * epoch_hours;
        for (std::size_t c = 0; c < n; ++c)
            leveler.addInterval(c, pt.cores[c], hours);
        if (level)
            leveler.maybeMigrate(assignment);
    }

    WearRun run;
    run.spread_frac = leveler.spreadFrac();
    run.migrations = leveler.migrations();
    for (std::size_t c = 0; c < n; ++c)
        run.consumed.push_back(leveler.consumedFrac(c));
    return run;
}

util::JsonValue
selectionJson(const char *policy, const cmp::ChipSelection &sel)
{
    using util::JsonValue;
    JsonValue budgets = JsonValue::makeArray();
    for (double fit : sel.budget_fit)
        budgets.push(JsonValue::makeNumber(fit));
    JsonValue out = JsonValue::makeObject();
    out.set("policy", JsonValue::makeString(policy));
    out.set("throughput_rel",
            JsonValue::makeNumber(sel.throughput_rel));
    out.set("chip_fit", JsonValue::makeNumber(sel.chip_fit));
    out.set("feasible", JsonValue::makeBool(sel.feasible));
    out.set("budget_fit", std::move(budgets));
    return out;
}

util::JsonValue
wearJson(const char *mode, const WearRun &run)
{
    using util::JsonValue;
    JsonValue consumed = JsonValue::makeArray();
    for (double frac : run.consumed)
        consumed.push(JsonValue::makeNumber(frac));
    JsonValue out = JsonValue::makeObject();
    out.set("mode", JsonValue::makeString(mode));
    out.set("spread_frac", JsonValue::makeNumber(run.spread_frac));
    out.set("migrations", JsonValue::makeNumber(
                              static_cast<double>(run.migrations)));
    out.set("consumed", std::move(consumed));
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto opts = bench::Options::parse(argc, argv);
    bench::Suite suite(opts);

    constexpr double t_qual_k = 345.0;
    constexpr double per_core_fit = 4000.0;
    constexpr std::uint32_t num_epochs = 40;
    constexpr double epoch_years = 0.25; // 10-year horizon.

    // Chip shapes: an explicit floorplan wins, then --cores, then
    // the default 2/4/8 built-in grid sweep.
    std::vector<cmp::ChipFloorplan> plans;
    if (!opts.floorplan_path.empty()) {
        auto plan = cmp::ChipFloorplan::tryLoad(opts.floorplan_path);
        if (!plan.ok())
            util::fatal(util::cat("--floorplan: ",
                                  plan.error().str()));
        plans.push_back(std::move(plan.value()));
    } else if (opts.cores != 0) {
        plans.push_back(cmp::ChipFloorplan::grid(opts.cores));
    } else {
        for (const std::size_t n : {2u, 4u, 8u})
            plans.push_back(cmp::ChipFloorplan::grid(n));
    }

    const Scenario scenarios[] = {
        // Integer mix, bursty: the consumer desktop duty cycle.
        {"consumer_burst", {0, 2, 1, 3, 0, 2, 1, 3}, dutyBurst},
        // Hot FP next to cool integer, pinned at full duty.
        {"server_sustained", {4, 1, 5, 0, 4, 1, 5, 0},
         dutySustained},
        // Media codecs at partial duty: the mobile envelope.
        {"mobile_media", {6, 7, 8, 1, 6, 7, 8, 1}, dutyMobile},
    };

    const core::Qualification shipped =
        suite.qualification(t_qual_k);

    util::JsonValue scenario_docs = util::JsonValue::makeArray();
    bool global_dominates = true;
    bool budget_respected = true;
    bool wear_narrows = true;

    for (const Scenario &scenario : scenarios) {
        // One exploration per distinct app in the mix, fanned across
        // the pool (each inner explore reuses the pool inline via the
        // nested-submission guard); chips of every size then select
        // from the same explored spaces.
        const std::size_t max_cores = [&] {
            std::size_t m = 0;
            for (const auto &plan : plans)
                m = std::max(m, plan.numCores());
            return m;
        }();
        std::vector<const workload::AppProfile *> mix_apps;
        for (std::size_t c = 0; c < max_cores; ++c) {
            const std::size_t slot =
                scenario.slots[c % scenario.slots.size()];
            mix_apps.push_back(&suite.apps[slot % suite.apps.size()]);
        }
        const std::vector<drm::ExploredApp> explored =
            cmp::exploreApps(suite.explorer, mix_apps,
                             drm::AdaptationSpace::Dvs);

        util::Table t({"cores", "per-core tput", "global tput",
                       "gain", "chip FIT / budget", "spread static",
                       "spread leveled", "migr"});
        t.setTitle(util::cat("CMP [", scenario.name,
                             "]: global vs per-core FIT budgeting, "
                             "wear leveling"));
        util::JsonValue chips = util::JsonValue::makeArray();
        std::vector<std::string> deviations;

        for (const auto &plan : plans) {
            const std::size_t n = plan.numCores();
            std::vector<const drm::ExploredApp *> cores;
            for (std::size_t c = 0; c < n; ++c)
                cores.push_back(&explored[c]);

            core::QualificationSpec chip_spec;
            chip_spec.t_qual_k = t_qual_k;
            chip_spec.alpha_qual = suite.alpha_qual;
            chip_spec.target_fit =
                per_core_fit * static_cast<double>(n);

            SelectionPair sel;
            sel.per_core = cmp::selectChipDrm(
                cores, chip_spec, cmp::BudgetPolicy::PerCore);
            sel.global = cmp::selectChipDrm(
                cores, chip_spec, cmp::BudgetPolicy::Global);
            sel.budget_fit = chip_spec.target_fit;

            const bool dominates = sel.global.throughput_rel >=
                                   sel.per_core.throughput_rel -
                                       1e-9;
            const bool budgeted =
                !sel.global.feasible ||
                sel.global.chip_fit <= sel.budget_fit + 1e-9;
            global_dominates &= dominates;
            budget_respected &= budgeted;

            // Age the mix at its globally-selected points, leveling
            // off versus on.
            const cmp::ChipEvaluator chip(plan, &suite.explorer,
                                          &suite.pool);
            std::vector<const workload::AppProfile *> apps(
                mix_apps.begin(), mix_apps.begin() + n);
            std::vector<sim::MachineConfig> cfgs;
            for (std::size_t c = 0; c < n; ++c)
                cfgs.push_back(sel.global.cores[c].config);
            // The static run doubles as the pilot calibrating the
            // hysteresis: its final spread is num_epochs' worth of
            // growth, so triggering at a few epochs' worth keeps the
            // policy migrating (and re-arming) across the whole run
            // whatever the mix's absolute damage rates are.
            const WearRun wear_static =
                ageChip(chip, apps, cfgs, shipped, scenario, {},
                        /*level=*/false, num_epochs, epoch_years);
            cmp::WearParams wear_params;
            wear_params.migrate_spread_frac =
                std::max(wear_static.spread_frac * 4.0 / num_epochs,
                         1e-9);
            wear_params.rearm_spread_frac =
                wear_params.migrate_spread_frac / 2.0;
            const WearRun wear_leveled =
                ageChip(chip, apps, cfgs, shipped, scenario,
                        wear_params, /*level=*/true, num_epochs,
                        epoch_years);
            const bool narrowed =
                n < 2 ||
                (wear_leveled.migrations > 0
                     ? wear_leveled.spread_frac <
                           wear_static.spread_frac
                     : wear_leveled.spread_frac <=
                           wear_static.spread_frac);
            wear_narrows &= narrowed;

            t.addRow({std::to_string(n),
                      util::Table::num(sel.per_core.throughput_rel,
                                       4),
                      util::Table::num(sel.global.throughput_rel, 4),
                      util::cat(util::Table::num(
                                    100.0 *
                                        (sel.global.throughput_rel /
                                             sel.per_core
                                                 .throughput_rel -
                                         1.0),
                                    2),
                                "%"),
                      util::cat(util::Table::num(sel.global.chip_fit,
                                                 0),
                                " / ",
                                util::Table::num(sel.budget_fit, 0)),
                      util::Table::num(wear_static.spread_frac, 4),
                      util::Table::num(wear_leveled.spread_frac, 4),
                      std::to_string(wear_leveled.migrations)});
            if (!dominates || !budgeted || !narrowed)
                deviations.push_back(util::cat(
                    "  ", n, " cores: ",
                    dominates ? "" : "global < per-core; ",
                    budgeted ? "" : "budget exceeded; ",
                    narrowed ? "" : "spread not narrowed; ",
                    "DEVIATION"));

            util::JsonValue doc = util::JsonValue::makeObject();
            doc.set("cores", util::JsonValue::makeNumber(
                                 static_cast<double>(n)));
            doc.set("budget_fit",
                    util::JsonValue::makeNumber(sel.budget_fit));
            util::JsonValue policies = util::JsonValue::makeArray();
            policies.push(selectionJson("per-core", sel.per_core));
            policies.push(selectionJson("global", sel.global));
            doc.set("policies", std::move(policies));
            util::JsonValue wear = util::JsonValue::makeArray();
            wear.push(wearJson("static", wear_static));
            wear.push(wearJson("leveled", wear_leveled));
            doc.set("wear", std::move(wear));
            chips.push(doc);
        }
        t.print(std::cout);
        for (const std::string &line : deviations)
            std::printf("%s\n", line.c_str());
        std::printf("\n");

        util::JsonValue doc = util::JsonValue::makeObject();
        doc.set("scenario",
                util::JsonValue::makeString(scenario.name));
        util::JsonValue app_names = util::JsonValue::makeArray();
        for (const auto *app : mix_apps)
            app_names.push(util::JsonValue::makeString(app->name));
        doc.set("apps", std::move(app_names));
        doc.set("chips", std::move(chips));
        scenario_docs.push(doc);
    }

    util::JsonValue artifact = util::JsonValue::makeObject();
    artifact.set("bench", util::JsonValue::makeString("cmp"));
    artifact.set("t_qual_k", util::JsonValue::makeNumber(t_qual_k));
    artifact.set("per_core_fit",
                 util::JsonValue::makeNumber(per_core_fit));
    artifact.set("num_epochs",
                 util::JsonValue::makeNumber(num_epochs));
    artifact.set("epoch_years",
                 util::JsonValue::makeNumber(epoch_years));
    artifact.set("scenarios", std::move(scenario_docs));
    artifact.set("global_dominates",
                 util::JsonValue::makeBool(global_dominates));
    artifact.set("budget_respected",
                 util::JsonValue::makeBool(budget_respected));
    artifact.set("wear_narrows",
                 util::JsonValue::makeBool(wear_narrows));
    const bool artifact_ok = bench::writeBenchArtifact(
        bench::benchJsonPath(opts, "BENCH_cmp.json"), artifact);

    std::printf("global budgeting never below per-core at equal "
                "chip FIT: %s\n",
                global_dominates ? "yes" : "DEVIATION");
    std::printf("global selections within the chip FIT budget: %s\n",
                budget_respected ? "yes" : "DEVIATION");
    std::printf("wear leveling narrows the consumed-lifetime "
                "spread: %s\n",
                wear_narrows ? "yes" : "DEVIATION");
    if (!artifact_ok)
        return 1;
    return global_dominates && budget_respected && wear_narrows ? 0
                                                                : 1;
}
