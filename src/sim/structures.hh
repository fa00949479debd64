/**
 * @file
 * The on-chip structures RAMP tracks.
 *
 * The paper (Section 3) divides the processor into a small number of
 * architecture-level structures -- ALUs, FPUs, register files, branch
 * predictor, caches, load-store queue, instruction window -- and
 * applies each failure-mechanism model to a structure as an aggregate.
 * This enumeration is the shared vocabulary between the timing
 * simulator (which reports per-structure activity), the power model,
 * the thermal floorplan, and the RAMP reliability engine.
 *
 * Areas correspond to a MIPS R10000-like core scaled to 65 nm:
 * 4.5 mm x 4.5 mm = 20.25 mm^2, excluding the L2 cache (the paper
 * models L2 timing but not L2 reliability, since its temperature is
 * too low to matter).
 */

#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace ramp {
namespace sim {

/** Architecture-level structures modelled for reliability. */
enum class StructureId : std::size_t {
    IntAlu,   ///< Integer execution units (6 in the base machine).
    Fpu,      ///< Floating-point units (4 in the base machine).
    IntReg,   ///< Integer physical register file (192 regs).
    FpReg,    ///< FP physical register file (192 regs).
    Bpred,    ///< Branch predictor (2KB bimodal-agree + 32-entry RAS).
    IWin,     ///< Unified instruction window / reorder buffer (128).
    Lsq,      ///< Memory (load-store) queue, 32 entries.
    L1D,      ///< 64KB 2-way data cache.
    L1I,      ///< 32KB 2-way instruction cache.
    FrontEnd, ///< Fetch/decode/rename logic and result buses.
    NumStructures,
};

/** Number of modelled structures. */
constexpr std::size_t num_structures =
    static_cast<std::size_t>(StructureId::NumStructures);

/** Iterate all structure ids. */
constexpr std::array<StructureId, num_structures>
allStructures()
{
    std::array<StructureId, num_structures> ids{};
    for (std::size_t i = 0; i < num_structures; ++i)
        ids[i] = static_cast<StructureId>(i);
    return ids;
}

/** Index of a structure id into dense per-structure arrays. */
constexpr std::size_t
structureIndex(StructureId id)
{
    return static_cast<std::size_t>(id);
}

/** Human-readable structure name. */
std::string_view structureName(StructureId id);

/**
 * Structure area in mm^2 for the modelled 65 nm core. Areas sum to
 * 20.25 mm^2 (the paper's 20.2 mm^2 core, 4.5 mm x 4.5 mm).
 */
double structureArea(StructureId id);

/** Total core area in mm^2 (sum over structures). */
double totalCoreArea();

/** Convenience alias: a dense value-per-structure array. */
template <typename T>
using PerStructure = std::array<T, num_structures>;

/** Largest value of a per-structure map (e.g. the hottest block). */
double maxOf(const PerStructure<double> &v);

/** Structure-area-weighted mean of a per-structure map. */
double areaWeightedMean(const PerStructure<double> &v);

} // namespace sim
} // namespace ramp

