#include "drm/surrogate/tiered.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace drm {
namespace surrogate {

namespace {

struct SurrogateMetrics
{
    /** Models fitted (perf+temp surfaces; per-qual FIT surfaces are
     *  folded into the same fit). */
    telemetry::Counter fits = telemetry::counter("surrogate.fits");
    /** Tiered selections served by the surrogate fast path. */
    telemetry::Counter selections =
        telemetry::counter("surrogate.selections");
    /** Candidate points ranked by prediction. */
    telemetry::Counter rank_points =
        telemetry::counter("surrogate.rank_points");
    /** Exact evaluations spent training models (all cache history). */
    telemetry::Counter train_evals =
        telemetry::counter("surrogate.train_evals");
    /** Exact evaluations spent confirming the predicted frontier. */
    telemetry::Counter exact_confirms =
        telemetry::counter("surrogate.exact_confirms");
    /** Exact simulations a tiered selection did NOT issue, vs the
     *  exhaustive path's one-per-space-point. */
    telemetry::Counter exact_sims_saved =
        telemetry::counter("surrogate.exact_sims_saved");
    /** Selections that ran the exhaustive path while a surrogate
     *  mode was on (cold cache, degenerate history, residual gate,
     *  auto warm-up...). */
    telemetry::Counter fallbacks =
        telemetry::counter("surrogate.fallbacks");
};

SurrogateMetrics &
surrogateMetrics()
{
    static SurrogateMetrics m;
    return m;
}

/** The partial exploration the selection policies run over:
 *  unevaluated points are invalid, exactly like failed ones. */
ExploredApp
partialApp(const std::string &app_name,
           const core::OperatingPoint &base,
           const std::vector<std::optional<ExploredPoint>> &points)
{
    ExploredApp out;
    out.app_name = app_name;
    out.base = base;
    out.points.reserve(points.size());
    for (const auto &p : points)
        out.points.push_back(p ? *p : ExploredPoint{});
    return out;
}

/** Whether any evaluated point can participate in the policy (DRM
 *  needs a valid converged point; DTM only a valid one). Running a
 *  selection with none would be fatal in selectByConstraint. */
bool
hasSelectablePoint(const std::vector<std::optional<ExploredPoint>> &pts,
                   bool require_converged)
{
    for (const auto &p : pts)
        if (p && p->valid && (!require_converged || p->op.converged))
            return true;
    return false;
}

Selection
runPolicy(const ExploredApp &app, const core::Qualification &qual,
          bool drm, double t_design_k)
{
    return drm ? selectDrm(app, qual)
               : selectDtm(app, t_design_k, qual);
}

} // namespace

const char *
surrogateModeName(SurrogateMode mode)
{
    switch (mode) {
    case SurrogateMode::Off:
        return "off";
    case SurrogateMode::Rank:
        return "rank";
    case SurrogateMode::Auto:
        return "auto";
    }
    util::panic("surrogateModeName: bad mode");
}

std::optional<SurrogateMode>
surrogateModeFromName(const std::string &name)
{
    if (name == "off")
        return SurrogateMode::Off;
    if (name == "rank")
        return SurrogateMode::Rank;
    if (name == "auto")
        return SurrogateMode::Auto;
    return std::nullopt;
}

TieredExplorer::TieredExplorer(const OracleExplorer &explorer,
                               EvaluationCache *cache,
                               TieredOptions opts)
    : explorer_(explorer), cache_(cache), opts_(std::move(opts))
{
    if (opts_.train_max < feature_count)
        util::fatal(util::cat("TieredOptions::train_max (",
                              opts_.train_max, ") below the ",
                              feature_count, "-term feature basis"));
}

TieredSelection
TieredExplorer::selectDrm(const workload::AppProfile &app,
                          AdaptationSpace space,
                          const core::Qualification &qual)
{
    Policy policy;
    policy.drm = true;
    return select(app, space, qual, policy);
}

TieredSelection
TieredExplorer::selectDtm(const workload::AppProfile &app,
                          AdaptationSpace space, double t_design_k,
                          const core::Qualification &qual)
{
    Policy policy;
    policy.drm = false;
    policy.t_design_k = t_design_k;
    return select(app, space, qual, policy);
}

TieredExplorer::SpaceState &
TieredExplorer::stateFor(const workload::AppProfile &app,
                         AdaptationSpace space)
{
    auto key = std::make_pair(app.name, space);
    auto it = spaces_.find(key);
    if (it != spaces_.end())
        return it->second;

    SpaceState state;
    state.cfgs = configSpace(space);
    state.base = explorer_.evaluateBase(app);
    state.base_perf_uops_s = state.base.uopsPerSecond();
    state.points.resize(state.cfgs.size());
    return spaces_.emplace(std::move(key), std::move(state))
        .first->second;
}

bool
TieredExplorer::ensureEvaluated(SpaceState &state,
                                const workload::AppProfile &app,
                                std::size_t i)
{
    if (state.points[i])
        return false;
    auto result = explorer_.tryEvaluate(state.cfgs[i], app);
    if (result) {
        const double perf_rel =
            result.value().uopsPerSecond() / state.base_perf_uops_s;
        state.points[i] =
            ExploredPoint(std::move(result.value()), perf_rel);
    } else {
        // Same contract as OracleExplorer::explore: a failed point is
        // dropped (valid = false), and the decision is a pure
        // function of the point, so the tiered and exhaustive paths
        // drop identical sets.
        state.points[i] = ExploredPoint{};
        util::warn(util::cat("surrogate: dropped point ", i, " for ",
                             app.name, ": ", result.error().str()));
    }
    return true;
}

TieredSelection
TieredExplorer::exhaustive(SpaceState &state,
                           const workload::AppProfile &app,
                           AdaptationSpace space,
                           const core::Qualification &qual,
                           const Policy &policy,
                           const std::string &reason)
{
    TieredSelection out;
    out.space_points = state.cfgs.size();
    out.used_surrogate = false;
    out.fallback_reason = reason;

    std::size_t missing = 0;
    for (const auto &p : state.points)
        if (!p)
            ++missing;

    if (missing > 0) {
        // Evaluate through explore() so the work fans out across the
        // explorer's pool with its deterministic rep/rest key
        // ordering; already-memoized points re-derive bit-identically
        // from the cache, so overwriting them is a no-op.
        ExploredApp full = explorer_.explore(app, space);
        for (std::size_t i = 0; i < full.points.size(); ++i)
            state.points[i] = std::move(full.points[i]);
        out.exact_evals = missing;
    }

    if (reason != "off") {
        auto &metrics = surrogateMetrics();
        metrics.fallbacks.add();
        util::warn(util::cat("surrogate: exhaustive fallback for ",
                             app.name, "/", adaptationSpaceName(space),
                             " (", reason, ")"));
        // Auto mode treats the exhaustive pass as designed warm-up:
        // seed the model from it now (zero extra simulations) so the
        // next selection takes the fast path.
        if (opts_.mode == SurrogateMode::Auto && !state.model) {
            TieredSelection seeded; // counters only; discarded
            ensureModel(state, app, seeded);
        }
    }

    const ExploredApp full =
        partialApp(app.name, state.base, state.points);
    out.selection = runPolicy(full, qual, policy.drm,
                              policy.t_design_k);
    return out;
}

std::optional<std::string>
TieredExplorer::ensureModel(SpaceState &state,
                            const workload::AppProfile &app,
                            TieredSelection &result)
{
    if (state.model)
        return std::nullopt;

    // History = everything memoized plus everything the cache already
    // holds a timing record for. The DVS rungs of one architecture
    // share a timing key, so a single cached simulation puts its
    // whole ladder within reach (evaluating a rung is then only a
    // cheap thermal re-convergence).
    std::vector<std::size_t> history;
    const auto &params = explorer_.evaluator().params();
    for (std::size_t i = 0; i < state.cfgs.size(); ++i) {
        if (state.points[i]) {
            history.push_back(i);
        } else if (cache_ &&
                   cache_->contains(EvaluationCache::key(
                       state.cfgs[i], app, params))) {
            history.push_back(i);
        }
    }
    if (history.empty())
        return "cold-cache";
    if (history.size() < opts_.train_min)
        return "thin-history";

    // Deterministic, evenly-spread training subset: knob coverage
    // matters more than sample count for a quadratic surface.
    std::vector<std::size_t> train;
    const std::size_t want = std::min(opts_.train_max, history.size());
    for (std::size_t j = 0; j < want; ++j) {
        const std::size_t pick =
            history[(j * (history.size() - 1)) /
                    (want > 1 ? want - 1 : 1)];
        if (train.empty() || train.back() != pick)
            train.push_back(pick);
    }

    auto &metrics = surrogateMetrics();
    std::vector<TrainingSample> samples;
    for (std::size_t i : train) {
        if (ensureEvaluated(state, app, i)) {
            ++result.exact_evals;
            metrics.train_evals.add();
        }
        const ExploredPoint &pt = *state.points[i];
        // Failed or non-converged points cannot train: their
        // temperatures are absent or an unconverged iterate.
        if (pt.valid && pt.op.converged) {
            TrainingSample s;
            s.op = pt.op;
            s.perf_rel = pt.perf_rel;
            samples.push_back(std::move(s));
        }
    }

    auto fitted = SurrogateModel::fit(std::move(samples));
    if (!fitted) {
        const bool degenerate =
            fitted.error().code == util::ErrorCode::InvalidInput &&
            fitted.error().message.find("degenerate") !=
                std::string::npos;
        return degenerate ? "degenerate-history" : "thin-history";
    }
    state.model = std::move(fitted.value());
    metrics.fits.add();

    if (state.model->perfResidual() > opts_.residual_perf_max ||
        state.model->tempResidualK() > opts_.residual_temp_max_k) {
        util::warn(util::cat(
            "surrogate: residual gate tripped for ", app.name,
            " (perf ", state.model->perfResidual(), ", temp ",
            state.model->tempResidualK(), " K)"));
        state.model.reset();
        return "residual";
    }
    return std::nullopt;
}

TieredSelection
TieredExplorer::select(const workload::AppProfile &app,
                       AdaptationSpace space,
                       const core::Qualification &qual,
                       const Policy &policy)
{
    SpaceState &state = stateFor(app, space);

    if (opts_.mode == SurrogateMode::Off)
        return exhaustive(state, app, space, qual, policy, "off");

    TieredSelection out;
    out.space_points = state.cfgs.size();

    if (opts_.mode == SurrogateMode::Auto && !state.model) {
        // Warm-up probe: with too little history the fit attempt is
        // doomed, so skip straight to the exhaustive pass (which
        // seeds the model for next time).
        std::size_t known = 0;
        const auto &params = explorer_.evaluator().params();
        for (std::size_t i = 0; i < state.cfgs.size(); ++i)
            if (state.points[i] ||
                (cache_ && cache_->contains(EvaluationCache::key(
                               state.cfgs[i], app, params))))
                ++known;
        if (known < opts_.train_min)
            return exhaustive(state, app, space, qual, policy,
                              "auto-warmup");
    }

    if (auto reason = ensureModel(state, app, out)) {
        TieredSelection fell = exhaustive(state, app, space, qual,
                                          policy, *reason);
        fell.exact_evals += out.exact_evals; // count training spend
        return fell;
    }
    SurrogateModel &model = *state.model;

    auto &metrics = surrogateMetrics();
    const std::size_t n = state.cfgs.size();

    // Rank every point: predicted perf plus the policy's predicted
    // constraint (FIT for DRM, hottest temperature for DTM).
    std::vector<double> perf_hat(n, 0.0);
    std::vector<double> cons_hat(n, 0.0);
    double cons_margin = 0.0;
    double cons_limit = 0.0;
    bool log_constraint = policy.drm;
    if (policy.drm) {
        auto residual = model.fitLogResidual(qual);
        if (!residual || residual.value() > opts_.residual_log_fit_max) {
            if (residual)
                util::warn(util::cat(
                    "surrogate: log-FIT residual gate tripped for ",
                    app.name, " (", residual.value(), ")"));
            TieredSelection fell = exhaustive(state, app, space, qual,
                                              policy, "residual");
            fell.exact_evals += out.exact_evals;
            return fell;
        }
        cons_margin = opts_.margin_log_fit + 2.0 * residual.value();
        cons_limit = std::log(qual.spec().target_fit);
        for (std::size_t i = 0; i < n; ++i) {
            perf_hat[i] = model.predictPerf(state.cfgs[i]);
            // predictFit cannot fail here: fitSurface is memoized
            // from the residual probe above.
            cons_hat[i] = std::log(std::max(
                model.predictFit(state.cfgs[i], qual).value(),
                1e-30));
        }
    } else {
        cons_margin =
            opts_.margin_temp_k + 2.0 * model.tempResidualK();
        cons_limit = policy.t_design_k;
        for (std::size_t i = 0; i < n; ++i) {
            perf_hat[i] = model.predictPerf(state.cfgs[i]);
            cons_hat[i] = model.predictTempK(state.cfgs[i]);
        }
    }
    const double perf_margin =
        opts_.margin_perf_rel + 2.0 * model.perfResidual();
    out.ranked_points = n;
    metrics.rank_points.add(n);

    // Seed the evaluated set with the top-k predicted-feasible
    // frontier so the first partial selection starts near the true
    // winner even when the training points are all low performers.
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < n; ++i)
        if (cons_hat[i] <= cons_limit + cons_margin)
            frontier.push_back(i);
    std::sort(frontier.begin(), frontier.end(),
              [&](std::size_t a, std::size_t b) {
                  return perf_hat[a] > perf_hat[b];
              });
    if (frontier.size() > opts_.confirm_top_k)
        frontier.resize(opts_.confirm_top_k);
    for (std::size_t i : frontier) {
        if (ensureEvaluated(state, app, i)) {
            ++out.exact_evals;
            metrics.exact_confirms.add();
        }
    }

    if (!hasSelectablePoint(state.points, policy.drm)) {
        TieredSelection fell = exhaustive(state, app, space, qual,
                                          policy, "no-valid-training");
        fell.exact_evals += out.exact_evals;
        return fell;
    }

    // Confirm loop: select over the partial exploration, then
    // exactly evaluate every unevaluated point whose predictions
    // leave it able to displace the winner under the margins.
    // Each round strictly shrinks the unevaluated candidate set, so
    // the loop terminates; on exit, no unevaluated point can beat
    // the winner unless the surrogate is off by more than its
    // margins (the bit-identity tests pin that on the fig spaces).
    Selection sel;
    while (true) {
        ++out.confirm_rounds;
        const ExploredApp partial =
            partialApp(app.name, state.base, state.points);
        sel = runPolicy(partial, qual, policy.drm, policy.t_design_k);

        double least_violation = 1e300;
        for (std::size_t i = 0; i < n; ++i) {
            const auto &row = sel.table[i];
            if (row.valid && state.points[i])
                least_violation =
                    std::min(least_violation,
                             policy.drm ? row.fit : row.max_temp_k);
        }
        if (log_constraint && least_violation > 0.0)
            least_violation = std::log(least_violation);

        std::vector<std::size_t> candidates;
        for (std::size_t i = 0; i < n; ++i) {
            if (state.points[i])
                continue;
            // A hidden feasible point beats the winner only with
            // more performance (feasible case) or by existing at all
            // (infeasible case, where any feasible point wins).
            const bool maybe_feasible =
                cons_hat[i] <= cons_limit + cons_margin;
            const bool maybe_faster =
                perf_hat[i] >= sel.perf_rel - perf_margin;
            if (sel.feasible) {
                if (maybe_feasible && maybe_faster)
                    candidates.push_back(i);
            } else {
                // Nothing feasible found yet: confirm would-be
                // feasible points of any performance, and points
                // that could be a less-violating fallback.
                const bool maybe_closer =
                    cons_hat[i] <= least_violation + cons_margin;
                if (maybe_feasible || maybe_closer)
                    candidates.push_back(i);
            }
        }
        if (candidates.empty())
            break;
        for (std::size_t i : candidates) {
            if (ensureEvaluated(state, app, i)) {
                ++out.exact_evals;
                metrics.exact_confirms.add();
            }
        }
    }

    out.selection = std::move(sel);
    out.used_surrogate = true;
    metrics.selections.add();
    if (out.space_points > out.exact_evals)
        metrics.exact_sims_saved.add(out.space_points -
                                     out.exact_evals);
    return out;
}

} // namespace surrogate
} // namespace drm
} // namespace ramp
