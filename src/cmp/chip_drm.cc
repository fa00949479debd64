#include "cmp/chip_drm.hh"

#include <utility>

#include "util/logging.hh"

namespace ramp {
namespace cmp {

const char *
budgetPolicyName(BudgetPolicy policy)
{
    switch (policy) {
    case BudgetPolicy::PerCore:
        return "per-core";
    case BudgetPolicy::Global:
        return "global";
    }
    util::panic("unknown budget policy");
}

std::optional<BudgetPolicy>
budgetPolicyFromName(std::string_view name)
{
    if (name == "per-core")
        return BudgetPolicy::PerCore;
    if (name == "global")
        return BudgetPolicy::Global;
    return std::nullopt;
}

ChipSelection
selectChipDrm(const std::vector<const drm::ExploredApp *> &cores,
              const core::QualificationSpec &chip_spec,
              BudgetPolicy policy)
{
    const std::size_t n = cores.size();
    if (n == 0)
        util::panic("chip selection needs at least one core");
    const double share =
        chip_spec.target_fit / static_cast<double>(n);

    // ONE shared qualification normalized at the per-core share:
    // every point's FIT is priced against the same allocations, so
    // per-core values are comparable and the chip sum is meaningful.
    // (Scaling target_fit rescales the allocations proportionally,
    // so selection against one's own target is scale-invariant --
    // the chip-level trade has to be on the SUM, not on per-core
    // re-targeting.)
    core::QualificationSpec share_spec = chip_spec;
    share_spec.target_fit = share;
    const core::Qualification qual(share_spec);

    ChipSelection out;
    out.cores.reserve(n);

    // Equal-share baseline: every core selected against its static
    // share in isolation -- the PerCore answer, and the floor the
    // Global policy only ever improves on.
    bool all_within_share = true;
    for (std::size_t c = 0; c < n; ++c) {
        drm::Selection sel = drm::selectDrm(*cores[c], qual);
        all_within_share = all_within_share && sel.feasible;
        out.cores.push_back(std::move(sel));
    }

    if (policy == BudgetPolicy::Global) {
        // An upgrade is a valid, converged point faster than the
        // core's PerCore pick (its pick only gets faster, so no other
        // point ever qualifies). Each is priced once, up front, under
        // the same shared qualification.
        struct Candidate
        {
            std::size_t index;
            double perf_rel;
            double fit;
        };
        std::vector<std::vector<Candidate>> upgrades(n);
        for (std::size_t c = 0; c < n; ++c) {
            const auto &points = cores[c]->points;
            for (std::size_t p = 0; p < points.size(); ++p) {
                const drm::ExploredPoint &xp = points[p];
                if (xp.valid && xp.op.converged &&
                    xp.perf_rel > out.cores[c].perf_rel)
                    upgrades[c].push_back(
                        {p, xp.perf_rel,
                         qual.price(xp.basis(), xp.op.temps_k)
                             .totalFit()});
            }
        }

        // Cap the chip SUM only: grant the headroom cool cores left
        // unused to whichever upgrade gains the most throughput per
        // round and still fits. Deterministic tie-breaks: larger
        // gain, then smaller extra FIT, then lower core index, then
        // lower point index. Each round strictly improves one core
        // over a finite point set, so the loop terminates.
        double consumed_fit = 0.0;
        for (const drm::Selection &sel : out.cores)
            consumed_fit += sel.fit;
        for (;;) {
            double headroom = chip_spec.target_fit - consumed_fit;
            if (headroom <= 0.0)
                break;
            std::size_t best_core = n;
            const Candidate *best = nullptr;
            double best_gain = 0.0;
            double best_extra = 0.0;
            for (std::size_t c = 0; c < n; ++c) {
                const drm::Selection &cur = out.cores[c];
                for (const Candidate &pt : upgrades[c]) {
                    const double gain = pt.perf_rel - cur.perf_rel;
                    const double extra = pt.fit - cur.fit;
                    if (gain <= 0.0 || extra > headroom)
                        continue;
                    const bool better =
                        gain > best_gain ||
                        (gain == best_gain && best_core < n &&
                         extra < best_extra);
                    if (best_core == n || better) {
                        best_core = c;
                        best = &pt;
                        best_gain = gain;
                        best_extra = extra;
                    }
                }
            }
            if (best_core == n)
                break;
            drm::Selection &sel = out.cores[best_core];
            const drm::ExploredPoint &xp =
                cores[best_core]->points[best->index];
            consumed_fit += best->fit - sel.fit;
            sel.index = best->index;
            sel.config = xp.op.config;
            sel.perf_rel = best->perf_rel;
            sel.fit = best->fit;
            sel.max_temp_k = xp.op.maxTemp();
            sel.feasible = true; // within the chip-sum budget
        }
    }

    out.budget_fit.reserve(n);
    for (const drm::Selection &sel : out.cores) {
        out.budget_fit.push_back(sel.fit);
        out.chip_fit += sel.fit;
        out.throughput_rel += sel.perf_rel;
    }
    out.feasible = policy == BudgetPolicy::Global
                       ? out.chip_fit <= chip_spec.target_fit
                       : all_within_share;
    return out;
}

std::vector<drm::ExploredApp>
exploreApps(const drm::OracleExplorer &explorer,
            const std::vector<const workload::AppProfile *> &apps,
            drm::AdaptationSpace space)
{
    std::vector<drm::ExploreTask> tasks;
    tasks.reserve(apps.size());
    for (const workload::AppProfile *app : apps)
        tasks.push_back({app, space});
    return explorer.explore(tasks);
}

} // namespace cmp
} // namespace ramp
