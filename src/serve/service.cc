#include "serve/service.hh"

// ramp-lint: guarded_by(aging_mu_): chips_
// ramp-lint: guarded_by(aging_mu_): chip_seq_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "aging/slack_bank.hh"
#include "cmp/chip_drm.hh"
#include "cmp/floorplan.hh"
#include "util/constants.hh"
#include "util/error.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace serve {

using util::ErrorCode;
using util::JsonValue;
using util::RampError;
using util::Result;

EvaluationService::EvaluationService(ServiceOptions opts)
    : opts_(std::move(opts)),
      cache_(opts_.cache_path),
      pool_(opts_.threads),
      explorer_(opts_.eval_params, &cache_, &pool_),
      apps_(workload::standardApps())
{
    if (opts_.max_apps && opts_.max_apps < apps_.size())
        apps_.resize(opts_.max_apps);
}

void
EvaluationService::ensureReady()
{
    std::call_once(ready_once_, [&] {
        // A warm restart explores every space whose timing records
        // the cache holds on arrival; a cold cache explores (and
        // simulates) nothing beyond the base points.
        std::vector<drm::ExploreTask> tasks;
        for (const auto &app : apps_)
            for (const auto space :
                 {drm::AdaptationSpace::Arch, drm::AdaptationSpace::Dvs,
                  drm::AdaptationSpace::ArchDvs,
                  drm::AdaptationSpace::FetchThrottle})
                if (explorer_.cached(app, space))
                    tasks.push_back({&app, space});

        base_ops_.resize(apps_.size());
        const auto batch =
            pool_.parallelFor(apps_.size(), [&](std::size_t i) {
                base_ops_[i] = explorer_.evaluateBase(apps_[i]);
            });
        if (!batch.ok())
            throw util::RampException(
                batch.failures.front().second);
        alpha_qual_ = drm::alphaQualFromBaseline(base_ops_);

        auto explored = explorer_.explore(tasks);
        for (std::size_t t = 0; t < tasks.size(); ++t)
            ready_explored_.emplace(
                std::make_pair(
                    static_cast<std::size_t>(tasks[t].app - apps_.data()),
                    tasks[t].space),
                std::make_shared<const drm::ExploredApp>(
                    std::move(explored[t])));
    });
}

Result<std::size_t>
EvaluationService::appIndex(const std::string &app) const
{
    for (std::size_t i = 0; i < apps_.size(); ++i)
        if (apps_[i].name == app)
            return i;
    std::string known;
    for (const auto &a : apps_)
        known += known.empty() ? a.name : ", " + a.name;
    return RampError{ErrorCode::InvalidInput,
                     util::cat("unknown application '", app,
                               "' (serving: ", known, ")")};
}

Result<core::OperatingPoint>
EvaluationService::evaluatePoint(const std::string &app,
                                 drm::AdaptationSpace space,
                                 std::size_t config)
{
    auto idx = appIndex(app);
    if (!idx)
        return idx.error();
    // Explored at ready: the point is already evaluated, bit for bit
    // what evaluating it again gives.
    const auto ready = ready_explored_.find({idx.value(), space});
    if (ready != ready_explored_.end() &&
        config < ready->second->points.size() &&
        ready->second->points[config].valid)
        return ready->second->points[config].op;
    const auto configs = drm::configSpace(space);
    if (config >= configs.size())
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("config index ", config, " out of range for ",
                      drm::adaptationSpaceName(space), " (",
                      configs.size(), " configurations)")};
    return explorer_.tryEvaluate(configs[config],
                                 apps_[idx.value()]);
}

Result<core::QualificationSpec>
EvaluationService::qualificationSpec(double t_qual_k,
                                     std::string_view what) const
{
    core::QualificationSpec spec;
    if (!(t_qual_k > spec.ambient_k))
        return RampError{ErrorCode::InvalidInput,
                         util::cat(what, " (", t_qual_k,
                                   " K) must exceed the qualification "
                                   "ambient (",
                                   spec.ambient_k, " K)")};
    spec.t_qual_k = t_qual_k;
    spec.alpha_qual = alpha_qual_;
    return spec;
}

Result<JsonValue>
EvaluationService::encodeEvaluation(const Request &req,
                                    const core::OperatingPoint &op)
{
    auto idx = appIndex(req.app);
    if (!idx)
        return idx.error();
    const core::OperatingPoint &base = base_ops_[idx.value()];
    const auto spec = qualificationSpec(req.t_qual_k);
    if (!spec)
        return spec.error();
    const core::Qualification qual(spec.value());

    JsonValue out = JsonValue::makeObject();
    out.set("app", JsonValue::makeString(req.app));
    out.set("space", JsonValue::makeString(
                         drm::adaptationSpaceName(req.space)));
    out.set("config", JsonValue::makeNumber(
                          static_cast<double>(req.config)));
    out.set("frequency_ghz",
            JsonValue::makeNumber(op.config.frequency_ghz));
    out.set("voltage_v", JsonValue::makeNumber(op.config.voltage_v));
    out.set("perf_rel",
            JsonValue::makeNumber(op.uopsPerSecond() /
                                  base.uopsPerSecond()));
    out.set("ipc", JsonValue::makeNumber(op.ipc()));
    out.set("t_qual_k", JsonValue::makeNumber(req.t_qual_k));
    out.set("fit", JsonValue::makeNumber(
                       drm::operatingPointFit(qual, op)));
    out.set("max_temp_k", JsonValue::makeNumber(op.maxTemp()));
    out.set("avg_temp_k", JsonValue::makeNumber(op.avgTemp()));
    out.set("power_w", JsonValue::makeNumber(op.totalPower()));
    // A non-converged fixed point is a *reported* condition, never a
    // silent drop: the caller decides whether to trust the numbers.
    out.set("converged", JsonValue::makeBool(op.converged));
    return out;
}

Result<std::shared_ptr<const drm::ExploredApp>>
EvaluationService::explored(std::size_t app_index,
                            drm::AdaptationSpace space)
{
    const auto key = std::make_pair(app_index, space);
    if (auto ready = ready_explored_.find(key);
        ready != ready_explored_.end())
        return ready->second;
    auto it = explored_.find(key);
    if (it != explored_.end())
        return it->second;
    auto result = std::make_shared<const drm::ExploredApp>(
        explorer_.explore(apps_[app_index], space));
    explored_.emplace(key, result);
    return result;
}

Result<JsonValue>
EvaluationService::select(const Request &req)
{
    auto idx = appIndex(req.app);
    if (!idx)
        return idx.error();
    const auto spec = qualificationSpec(req.t_qual_k);
    if (!spec)
        return spec.error();
    const core::Qualification qual(spec.value());
    const bool drm_policy = req.type == RequestType::SelectDrm;

    auto space = explored(idx.value(), req.space);
    if (!space)
        return space.error();
    const drm::Selection sel =
        drm_policy ? drm::selectDrm(*space.value(), qual)
                   : drm::selectDtm(*space.value(), req.t_design_k, qual);

    JsonValue out = JsonValue::makeObject();
    out.set("app", JsonValue::makeString(req.app));
    out.set("space", JsonValue::makeString(
                         drm::adaptationSpaceName(req.space)));
    out.set("policy",
            JsonValue::makeString(drm_policy ? "drm" : "dtm"));
    out.set("t_qual_k", JsonValue::makeNumber(req.t_qual_k));
    if (!drm_policy)
        out.set("t_design_k", JsonValue::makeNumber(req.t_design_k));
    out.set("index", JsonValue::makeNumber(
                         static_cast<double>(sel.index)));
    out.set("frequency_ghz",
            JsonValue::makeNumber(sel.config.frequency_ghz));
    out.set("voltage_v", JsonValue::makeNumber(sel.config.voltage_v));
    out.set("window_size", JsonValue::makeNumber(static_cast<double>(
                               sel.config.window_size)));
    out.set("num_int_alu", JsonValue::makeNumber(static_cast<double>(
                               sel.config.num_int_alu)));
    out.set("num_fpu", JsonValue::makeNumber(static_cast<double>(
                           sel.config.num_fpu)));
    out.set("perf_rel", JsonValue::makeNumber(sel.perf_rel));
    out.set("fit", JsonValue::makeNumber(sel.fit));
    out.set("max_temp_k", JsonValue::makeNumber(sel.max_temp_k));
    out.set("feasible", JsonValue::makeBool(sel.feasible));
    out.set("converged", JsonValue::makeBool(sel.converged));
    return out;
}

Result<JsonValue>
EvaluationService::selectChip(const Request &req)
{
    const std::size_t n = req.core_apps.size();

    // Resolve the chip shape first: the request's floorplan (already
    // structurally validated by parseRequest) or the built-in grid.
    // grid() treats unsupported counts as a caller bug, so guard the
    // wire path with a structured error instead.
    Result<cmp::ChipFloorplan> plan =
        req.floorplan.isObject()
            ? cmp::ChipFloorplan::tryParse(req.floorplan, "request")
            : (n == 1 || n == 2 || n == 4 || n == 8)
                  ? Result<cmp::ChipFloorplan>(
                        cmp::ChipFloorplan::grid(n))
                  : Result<cmp::ChipFloorplan>(RampError{
                        ErrorCode::InvalidInput,
                        util::cat("no built-in floorplan for ", n,
                                  " cores (1, 2, 4, or 8); send an "
                                  "explicit 'floorplan'")});
    if (!plan)
        return plan.error();
    if (plan.value().numCores() != n)
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("select_chip names ", n, " apps but the "
                      "floorplan places ",
                      plan.value().numCores(), " cores")};

    std::vector<std::shared_ptr<const drm::ExploredApp>> spaces;
    spaces.reserve(n);
    for (const auto &app : req.core_apps) {
        auto idx = appIndex(app);
        if (!idx)
            return idx.error();
        auto space = explored(idx.value(), req.space);
        if (!space)
            return space.error();
        spaces.push_back(std::move(space.value()));
    }
    std::vector<const drm::ExploredApp *> cores;
    cores.reserve(n);
    for (const auto &space : spaces)
        cores.push_back(space.get());

    // One shared qualification prices every core's points, so FIT is
    // comparable and summable chip-wide; the chip budget is the
    // default per-core target scaled by the core count.
    auto spec = qualificationSpec(req.t_qual_k);
    if (!spec)
        return spec.error();
    core::QualificationSpec &chip_spec = spec.value();
    const double budget_fit = chip_spec.target_fit * static_cast<double>(n);
    chip_spec.target_fit = budget_fit;

    const cmp::ChipSelection sel =
        cmp::selectChipDrm(cores, chip_spec, req.budget_policy);

    JsonValue out = JsonValue::makeObject();
    JsonValue apps = JsonValue::makeArray();
    for (const auto &app : req.core_apps)
        apps.push(JsonValue::makeString(app));
    out.set("apps", std::move(apps));
    out.set("space", JsonValue::makeString(
                         drm::adaptationSpaceName(req.space)));
    out.set("policy", JsonValue::makeString(
                          cmp::budgetPolicyName(req.budget_policy)));
    out.set("t_qual_k", JsonValue::makeNumber(req.t_qual_k));
    out.set("budget_fit", JsonValue::makeNumber(budget_fit));
    out.set("chip_fit", JsonValue::makeNumber(sel.chip_fit));
    out.set("throughput_rel",
            JsonValue::makeNumber(sel.throughput_rel));
    out.set("feasible", JsonValue::makeBool(sel.feasible));
    JsonValue core_list = JsonValue::makeArray();
    for (std::size_t c = 0; c < n; ++c) {
        const drm::Selection &core = sel.cores[c];
        JsonValue entry = JsonValue::makeObject();
        entry.set("app", JsonValue::makeString(req.core_apps[c]));
        entry.set("index", JsonValue::makeNumber(
                               static_cast<double>(core.index)));
        entry.set("frequency_ghz",
                  JsonValue::makeNumber(core.config.frequency_ghz));
        entry.set("voltage_v",
                  JsonValue::makeNumber(core.config.voltage_v));
        entry.set("perf_rel", JsonValue::makeNumber(core.perf_rel));
        entry.set("fit", JsonValue::makeNumber(core.fit));
        entry.set("budget_fit",
                  JsonValue::makeNumber(sel.budget_fit[c]));
        entry.set("max_temp_k",
                  JsonValue::makeNumber(core.max_temp_k));
        entry.set("feasible", JsonValue::makeBool(core.feasible));
        core_list.push(std::move(entry));
    }
    out.set("cores", std::move(core_list));
    return out;
}

Result<JsonValue>
EvaluationService::reportUsage(const Request &req)
{
    auto delta = aging::agingStateFromJson(req.state);
    if (!delta)
        return delta.error();

    double age_hours = 0.0;
    double consumed_frac = 0.0;
    double max_pair = 0.0;
    bool applied = true;
    {
        std::lock_guard lock(aging_mu_);
        aging::AgingState &state = chips_[req.chip];
        // Sequenced merges are idempotent: a replayed (or stale) seq
        // acknowledges with the current summary instead of re-adding
        // the delta, so a retry after a lost reply cannot
        // double-count damage. seq 0 = legacy, merged every time.
        std::uint64_t &last_seq = chip_seq_[req.chip];
        if (req.seq != 0 && req.seq <= last_seq) {
            applied = false;
        } else {
            state.add(delta.value());
            if (req.seq != 0)
                last_seq = req.seq;
        }
        age_hours = state.age_hours;
        consumed_frac = state.totalDamage();
        max_pair = state.maxPairDamage();
    }

    JsonValue out = JsonValue::makeObject();
    out.set("chip", JsonValue::makeString(req.chip));
    out.set("age_hours", JsonValue::makeNumber(age_hours));
    out.set("consumed", JsonValue::makeNumber(consumed_frac));
    out.set("max_pair_consumed", JsonValue::makeNumber(max_pair));
    if (req.seq != 0)
        out.set("applied", JsonValue::makeBool(applied));
    return out;
}

Result<JsonValue>
EvaluationService::cacheAppend(const Request &req)
{
    const bool applied = cache_.putSerialized(req.key, req.record);
    if (!applied && !cache_.contains(req.key))
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("cache_append: record for key '", req.key,
                      "' is malformed or from a stale format "
                      "version")};
    JsonValue out = JsonValue::makeObject();
    out.set("applied", JsonValue::makeBool(applied));
    out.set("records", JsonValue::makeNumber(
                           static_cast<double>(cache_.size())));
    return out;
}

Result<JsonValue>
EvaluationService::remainingLifetime(const Request &req)
{
    auto idx = appIndex(req.app);
    if (!idx)
        return idx.error();

    auto state = chipState(req.chip);
    if (!state)
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("unknown chip '", req.chip,
                      "' (send report_usage before asking for its "
                      "remaining lifetime)")};

    const auto base_spec = qualificationSpec(req.t_qual_k);
    if (!base_spec)
        return base_spec.error();
    aging::SlackBankParams policy_params;
    policy_params.base_t_qual_k = req.t_qual_k;
    const aging::SlackBankPolicy policy(policy_params);
    const double consumed_frac = state->totalDamage();
    const double slack_frac = policy.slackFrac(*state);
    const double t_eff_k = policy.effectiveTQualK(*state);
    // The throttle can take a valid base below ambient.
    if (const auto eff = qualificationSpec(
            t_eff_k, util::cat("throttled effective t_qual_k of chip '",
                               req.chip, "'"));
        !eff)
        return eff.error();

    // The slack-banking trade rides through the *unmodified*
    // Selection API: a chip with banked slack selects against a
    // hotter effective T_qual (more feasible points, a faster
    // winner); an over-spent chip selects against a cooler one and
    // throttles.
    Request sel_req = req;
    sel_req.type = RequestType::SelectDrm;
    sel_req.t_qual_k = t_eff_k;
    auto selection = select(sel_req);
    if (!selection)
        return selection.error();

    const JsonValue *fit = selection.value().find("fit");
    const double point_fit =
        fit && fit->isNumber() ? fit->number : 0.0;
    const double target_fit = base_spec.value().target_fit;
    const double eta_hours = aging::remainingHoursAtFit(
        *state, point_fit, target_fit,
        policy_params.service_life_years);

    JsonValue out = JsonValue::makeObject();
    out.set("chip", JsonValue::makeString(req.chip));
    out.set("age_hours", JsonValue::makeNumber(state->age_hours));
    out.set("consumed", JsonValue::makeNumber(consumed_frac));
    out.set("max_pair_consumed",
            JsonValue::makeNumber(state->maxPairDamage()));
    out.set("slack", JsonValue::makeNumber(slack_frac));
    out.set("t_qual_base_k", JsonValue::makeNumber(req.t_qual_k));
    out.set("t_qual_eff_k", JsonValue::makeNumber(t_eff_k));
    if (std::isfinite(eta_hours)) {
        out.set("eta_hours", JsonValue::makeNumber(eta_hours));
        out.set("eta_years", JsonValue::makeNumber(
                                 eta_hours / util::hours_per_year));
    } else {
        // A zero-FIT selection never spends the budget; JSON has no
        // infinity, so say so structurally instead.
        out.set("eta_unbounded", JsonValue::makeBool(true));
    }
    out.set("selection", std::move(selection.value()));
    return out;
}

std::optional<aging::AgingState>
EvaluationService::chipState(const std::string &chip) const
{
    std::lock_guard lock(aging_mu_);
    auto it = chips_.find(chip);
    if (it == chips_.end())
        return std::nullopt;
    return it->second;
}

namespace {

/** Registry file version. v1 held only the chips; v2 adds each
 *  chip's last applied report_usage seq, so a restart cannot apply
 *  a replayed report twice. */
constexpr std::uint64_t registry_version = 2;

telemetry::Counter &
registryQuarantineCounter()
{
    static telemetry::Counter c =
        telemetry::counter("aging.state_quarantined");
    return c;
}

/** A loaded registry: the chips and their last applied seqs. */
struct Registry
{
    std::map<std::string, aging::AgingState> chips;
    std::map<std::string, std::uint64_t> seq;
};

/** Parse {"v":1,"chips":{name:state}} or v2's
 *  {"v":2,"chips":{...},"seq":{name:N}}; CorruptRecord on any shape
 *  defect, InvalidInput when the version is from the future. */
Result<Registry>
registryFromJson(const JsonValue &doc)
{
    const JsonValue *v = doc.find("v"); // nullptr unless an object
    const auto version = v ? v->asUint() : std::nullopt;
    if (!version || *version == 0)
        return RampError{ErrorCode::CorruptRecord,
                         "aging registry needs a positive integer "
                         "'v'"};
    if (*version > registry_version)
        return RampError{
            ErrorCode::InvalidInput,
            util::cat("aging registry version ", *version,
                      " is newer than this build supports (v",
                      registry_version,
                      "); refusing to load or quarantine it")};
    if (doc.object.size() != (*version == 1 ? 2u : 3u))
        return RampError{ErrorCode::CorruptRecord,
                         util::cat("aging registry v", *version,
                                   " must hold exactly 'v', 'chips'",
                                   *version == 1 ? "" : " and 'seq'")};
    const JsonValue *chips = doc.find("chips");
    if (!chips || !chips->isObject())
        return RampError{ErrorCode::CorruptRecord,
                         "aging registry needs a 'chips' object"};
    Registry out;
    for (const auto &[name, state_doc] : chips->object) {
        auto state = aging::agingStateFromJson(state_doc);
        if (!state)
            return RampError{
                state.error().code,
                util::cat("aging registry chip '", name, "': ",
                          state.error().message)};
        out.chips.emplace(name, std::move(state.value()));
    }
    if (*version == 1)
        return out; // Every chip's seq starts at 0.
    const JsonValue *seq = doc.find("seq");
    if (!seq || !seq->isObject())
        return RampError{ErrorCode::CorruptRecord,
                         "aging registry needs a 'seq' object"};
    for (const auto &[name, n] : seq->object) {
        const auto last = n.asUint();
        if (!last || !out.chips.count(name))
            return RampError{
                ErrorCode::CorruptRecord,
                util::cat("aging registry seq '", name,
                          "' must be a non-negative integer for a "
                          "listed chip")};
        out.seq.emplace(name, *last);
    }
    return out;
}

} // namespace

Result<void>
EvaluationService::loadAgingRegistry(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        return {}; // Missing file: a fresh fleet.
    std::ostringstream text;
    text << is.rdbuf();
    std::string err;
    const auto doc = util::parseJson(text.str(), &err);
    auto parsed =
        doc ? registryFromJson(*doc)
            : Result<Registry>(RampError{
                  ErrorCode::CorruptRecord,
                  util::cat("aging registry '", path,
                            "' is not valid JSON: ", err)});
    if (!parsed) {
        if (parsed.error().code == ErrorCode::InvalidInput)
            return parsed.error(); // Future version: hard stop.
        const std::string quarantine = path + ".quarantine";
        std::rename(path.c_str(), quarantine.c_str());
        registryQuarantineCounter().add();
        util::warn(util::cat("aging registry '", path,
                             "' is corrupt (", parsed.error().message,
                             "); quarantined to '", quarantine,
                             "', starting fresh"));
        return {};
    }
    std::lock_guard lock(aging_mu_);
    chips_ = std::move(parsed.value().chips);
    chip_seq_ = std::move(parsed.value().seq);
    return {};
}

Result<void>
EvaluationService::saveAgingRegistry(const std::string &path) const
{
    JsonValue chips = JsonValue::makeObject();
    JsonValue seq = JsonValue::makeObject();
    {
        std::lock_guard lock(aging_mu_);
        for (const auto &[name, state] : chips_)
            chips.set(name, aging::toJson(state));
        for (const auto &[name, last] : chip_seq_)
            if (last != 0)
                seq.set(name, JsonValue::makeNumber(
                                  static_cast<double>(last)));
    }
    JsonValue doc = JsonValue::makeObject();
    doc.set("v", JsonValue::makeNumber(
                     static_cast<double>(registry_version)));
    doc.set("chips", std::move(chips));
    doc.set("seq", std::move(seq));

    return util::saveJson(path, doc);
}

JsonValue
EvaluationService::cacheStatsJson() const
{
    const auto stats = cache_.stats();
    JsonValue out = JsonValue::makeObject();
    out.set("records", JsonValue::makeNumber(
                           static_cast<double>(cache_.size())));
    out.set("hits", JsonValue::makeNumber(
                        static_cast<double>(stats.hits)));
    out.set("misses", JsonValue::makeNumber(
                          static_cast<double>(stats.misses)));
    out.set("appended", JsonValue::makeNumber(
                            static_cast<double>(stats.appended)));
    out.set("loaded", JsonValue::makeNumber(
                          static_cast<double>(stats.loaded)));
    return out;
}

} // namespace serve
} // namespace ramp
