/**
 * @file
 * Chip floorplan for the thermal model.
 *
 * The paper feeds HotSpot a MIPS R10000-like floorplan (without L2)
 * scaled to 4.5 mm x 4.5 mm; we reproduce that: each reliability
 * structure is a rectangle, the rectangles tile the die exactly, and
 * block adjacency (shared border length) drives lateral thermal
 * coupling.
 */

#pragma once

#include <array>
#include <cstddef>

#include "sim/structures.hh"

namespace ramp {
namespace thermal {

/** Axis-aligned placement of one structure on the die (mm). */
struct Block
{
    sim::StructureId id;
    double x = 0.0;  ///< Left edge.
    double y = 0.0;  ///< Bottom edge.
    double w = 0.0;  ///< Width.
    double h = 0.0;  ///< Height.

    double area() const { return w * h; }
    double cx() const { return x + w / 2.0; }
    double cy() const { return y + h / 2.0; }
};

/** Lower-left corner of one core tile on the chip (mm). */
struct TileOrigin
{
    double x_mm = 0.0;
    double y_mm = 0.0;

    /** A tile-local block moved to chip coordinates. */
    Block place(Block b) const
    {
        b.x += x_mm;
        b.y += y_mm;
        return b;
    }

    /** The square tile of edge @p size_mm (its block id is unused). */
    Block footprint(double size_mm) const
    {
        return {{}, x_mm, y_mm, size_mm, size_mm};
    }
};

/**
 * Length (mm) of the border two blocks share; 0 when they do not
 * abut (edges coincide within 1e-9 mm). Symmetric.
 */
double sharedBorder(const Block &p, const Block &q);

/** Distance between two blocks' centers (mm). */
double centerDistance(const Block &p, const Block &q);

/** The fixed R10000-like core floorplan. */
class Floorplan
{
  public:
    /** Build the default 4.5 mm x 4.5 mm layout. */
    Floorplan();

    /** Block placement for a structure. */
    const Block &block(sim::StructureId id) const;

    /** Die edge length (mm); the die is square. */
    double dieSize() const { return die_mm_; }

    /**
     * Length (mm) of the border shared by two blocks; 0 when they are
     * not adjacent. Symmetric.
     */
    double sharedBorder(sim::StructureId a, sim::StructureId b) const;

    /** Distance between block centers (mm). */
    double centerDistance(sim::StructureId a, sim::StructureId b) const;

  private:
    double die_mm_ = 4.5;
    std::array<Block, sim::num_structures> blocks_;
};

} // namespace thermal
} // namespace ramp

