/**
 * @file
 * Chip-level (CMP) floorplan: N copies of the R10000-like core tile
 * placed on a shared die.
 *
 * Each core occupies one 4.5 mm x 4.5 mm tile (the single-core
 * floorplan, thermal/floorplan.hh) at an arbitrary origin; tiles
 * must not overlap, and for a multi-core chip every tile must be
 * reachable from every other through shared tile borders (a
 * disconnected floorplan has no lateral heat path and is almost
 * certainly a typo in the placement). Built-in 1/2/4/8-core grids
 * cover the bench matrix; arbitrary placements load from a JSON
 * document:
 *
 *   {"cores": [{"name": "c0", "x_mm": 0.0, "y_mm": 0.0}, ...]}
 *
 * Validation is strict and diagnostic: every rejection names the
 * offending document and core index (`plan.json:cores[2]: ...`) so
 * a malformed floorplan arriving over the wire turns into a
 * structured bad-request, never a crash.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "thermal/floorplan.hh"
#include "util/error.hh"
#include "util/json.hh"

namespace ramp {
namespace cmp {

/** A named core tile placed on the chip. */
struct CoreTile : thermal::TileOrigin
{
    std::string name;
};

/** An N-core tiled chip floorplan. */
class ChipFloorplan
{
  public:
    /**
     * Built-in grids: 1 core at the origin, 2 side by side, 4 as a
     * 2x2 grid, 8 as a 4x2 grid, all tiles abutting. Any other count
     * is a caller bug (fatal); floorplans from untrusted input go
     * through tryParse instead.
     */
    static ChipFloorplan grid(std::size_t cores);

    /**
     * Build from a parsed JSON document. @p origin names the source
     * (file path or "request") and prefixes every diagnostic.
     * Rejects (InvalidInput): a root that is not {"cores": [...]},
     * an empty core list, non-finite or missing coordinates,
     * duplicate core names, overlapping tiles, and (for more than
     * one core) a tile adjacency graph that is not connected.
     */
    [[nodiscard]] static util::Result<ChipFloorplan>
    tryParse(const util::JsonValue &doc, const std::string &origin);

    /** Read and parse a floorplan file (IoFailure on read errors,
     *  InvalidInput with path-prefixed diagnostics otherwise). */
    [[nodiscard]] static util::Result<ChipFloorplan>
    tryLoad(const std::string &path);

    std::size_t numCores() const { return tiles_.size(); }
    const std::vector<CoreTile> &tiles() const { return tiles_; }

    /** Edge length of one core tile (mm); tiles are square. */
    double tileSize() const { return core_.dieSize(); }

    /** Tile origins in core order (the thermal network placement). */
    std::vector<thermal::TileOrigin> origins() const;

  private:
    explicit ChipFloorplan(std::vector<CoreTile> tiles);

    thermal::Floorplan core_;
    std::vector<CoreTile> tiles_;
};

} // namespace cmp
} // namespace ramp
