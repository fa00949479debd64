/**
 * @file
 * Chip-level DRM: one qualified FIT budget for the whole chip,
 * allocated across cores, with per-core selection through the
 * *unmodified* single-core oracle (drm::selectDrm).
 *
 * Every core's points are priced under ONE shared qualification (the
 * chip spec at the equal per-core share), so FIT values are
 * comparable and summable across cores. Two allocation policies:
 *
 *  - PerCore: each core independently capped at its static share --
 *    exactly selectDrm, the baseline an N-way replication of the
 *    paper's single-core scheme would give.
 *  - Global: only the chip SUM is capped, at N x share. Starting
 *    from the PerCore selections, the unused headroom
 *    (chip budget - summed consumed FIT) is granted greedily: each
 *    round upgrades, among every core's valid, converged explored
 *    points faster than its current pick (each priced once, under
 *    the shared qualification), the affordable point with the
 *    largest throughput gain, until no upgrade fits.
 *    A hot core may thus exceed its share on the margin cool cores
 *    never used. Every core's performance ends >= its PerCore
 *    selection and the summed FIT never exceeds the chip budget --
 *    cool cores' headroom funds hot cores' frequency.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <vector>

#include "core/qualification.hh"
#include "drm/adaptation.hh"
#include "drm/oracle.hh"
#include "util/thread_pool.hh"
#include "workload/profile.hh"

namespace ramp {
namespace cmp {

/** How the chip FIT budget is split across cores. */
enum class BudgetPolicy {
    PerCore, ///< Static equal shares, cores isolated.
    Global,  ///< Slack reallocated from cool cores to hot ones.
};

/** Stable lowercase name ("per-core" / "global"). */
const char *budgetPolicyName(BudgetPolicy policy);

/** Inverse of budgetPolicyName; nullopt for unknown names. */
std::optional<BudgetPolicy>
budgetPolicyFromName(std::string_view name);

/** Result of a chip-level DRM selection. */
struct ChipSelection
{
    /** Per-core selections (index parallel to the input cores). */
    std::vector<drm::Selection> cores;
    /** Per-core FIT finally consumed by the chosen points. */
    std::vector<double> budget_fit;
    /** Summed selected-point FIT across cores. */
    double chip_fit = 0.0;
    /** Chip throughput: summed per-core perf_rel. */
    double throughput_rel = 0.0;
    /** The policy's constraint held: every core within its share
     *  under PerCore, the chip sum within the budget under Global. */
    bool feasible = true;
};

/**
 * Allocate @p chip_spec.target_fit (the *whole-chip* budget) across
 * the cores and select per core. @p cores holds each core's explored
 * space; the remaining qualification parameters (T_qual, alpha_qual,
 * ...) are shared chip-wide from @p chip_spec.
 */
ChipSelection
selectChipDrm(const std::vector<const drm::ExploredApp *> &cores,
              const core::QualificationSpec &chip_spec,
              BudgetPolicy policy);

/**
 * Explore one adaptation space for several apps in one pass
 * (drm::OracleExplorer::explore over one task per app, on the
 * explorer's own pool). Results land by input index, bit-identical
 * at any thread count.
 */
std::vector<drm::ExploredApp>
exploreApps(const drm::OracleExplorer &explorer,
            const std::vector<const workload::AppProfile *> &apps,
            drm::AdaptationSpace space);

} // namespace cmp
} // namespace ramp
