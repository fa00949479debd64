#include "cmp/floorplan.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/logging.hh"

namespace ramp {
namespace cmp {

namespace {

constexpr double eps_mm = 1e-9;

util::RampError
planError(const std::string &origin, const std::string &what)
{
    return {util::ErrorCode::InvalidInput,
            util::cat(origin, ": ", what)};
}

util::RampError
coreError(const std::string &origin, std::size_t index,
          const std::string &what)
{
    return {util::ErrorCode::InvalidInput,
            util::cat(origin, ":cores[", index, "]: ", what)};
}

/** Strict placement validation; @p size is the tile edge length. */
util::Result<void>
validateTiles(const std::vector<CoreTile> &tiles, double size,
              const std::string &origin)
{
    for (std::size_t i = 0; i < tiles.size(); ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (tiles[i].name == tiles[j].name)
                return coreError(
                    origin, i,
                    util::cat("duplicate core name '", tiles[i].name,
                              "' (first used by cores[", j, "])"));

    for (std::size_t i = 0; i < tiles.size(); ++i)
        for (std::size_t j = 0; j < i; ++j) {
            const double ox = std::min(tiles[i].x_mm + size,
                                       tiles[j].x_mm + size) -
                              std::max(tiles[i].x_mm, tiles[j].x_mm);
            const double oy = std::min(tiles[i].y_mm + size,
                                       tiles[j].y_mm + size) -
                              std::max(tiles[i].y_mm, tiles[j].y_mm);
            if (ox > eps_mm && oy > eps_mm)
                return coreError(
                    origin, i,
                    util::cat("tile overlaps cores[", j, "] by ", ox,
                              " x ", oy, " mm"));
        }

    // Every tile must reach every other through shared borders:
    // lateral heat has no path across a gap, so a disconnected
    // placement silently degenerates to independent dies.
    if (tiles.size() > 1) {
        std::vector<char> seen(tiles.size(), 0);
        std::vector<std::size_t> stack{0};
        seen[0] = 1;
        while (!stack.empty()) {
            const std::size_t a = stack.back();
            stack.pop_back();
            for (std::size_t b = 0; b < tiles.size(); ++b) {
                if (seen[b])
                    continue;
                if (thermal::sharedBorder(tiles[a].footprint(size),
                                          tiles[b].footprint(size)) >
                    eps_mm) {
                    seen[b] = 1;
                    stack.push_back(b);
                }
            }
        }
        for (std::size_t i = 0; i < tiles.size(); ++i)
            if (!seen[i])
                return coreError(
                    origin, i,
                    "tile is disconnected from cores[0] (no chain "
                    "of shared tile borders)");
    }
    return {};
}

} // namespace

ChipFloorplan::ChipFloorplan(std::vector<CoreTile> tiles)
    : tiles_(std::move(tiles))
{
}

ChipFloorplan
ChipFloorplan::grid(std::size_t cores)
{
    if (cores != 1 && cores != 2 && cores != 4 && cores != 8)
        util::fatal(util::cat("no built-in ", cores,
                              "-core grid (1, 2, 4, or 8); load a "
                              "custom placement via --floorplan"));
    const double s = thermal::Floorplan().dieSize();
    const std::size_t columns = cores <= 2 ? cores : cores / 2;
    std::vector<CoreTile> tiles;
    tiles.reserve(cores);
    for (std::size_t i = 0; i < cores; ++i)
        tiles.push_back({{static_cast<double>(i % columns) * s,
                          static_cast<double>(i / columns) * s},
                         util::cat("core", i)});
    return ChipFloorplan(std::move(tiles));
}

util::Result<ChipFloorplan>
ChipFloorplan::tryParse(const util::JsonValue &doc,
                        const std::string &origin)
{
    if (!doc.isObject())
        return planError(origin, "floorplan root must be an object");
    const util::JsonValue *cores = doc.find("cores");
    if (cores == nullptr)
        return planError(origin, "missing \"cores\" array");
    if (!cores->isArray())
        return planError(origin, "\"cores\" must be an array");
    if (cores->array.empty())
        return planError(origin, "\"cores\" must name at least one "
                                 "core");

    std::vector<CoreTile> tiles;
    tiles.reserve(cores->array.size());
    for (std::size_t i = 0; i < cores->array.size(); ++i) {
        const util::JsonValue &c = cores->array[i];
        if (!c.isObject())
            return coreError(origin, i, "core must be an object");
        CoreTile tile;
        tile.name = util::cat("core", i);
        if (const util::JsonValue *name = c.find("name")) {
            if (!name->isString() || name->str.empty())
                return coreError(origin, i,
                                 "\"name\" must be a non-empty "
                                 "string");
            tile.name = name->str;
        }
        for (const auto &[key, dest] :
             {std::pair<const char *, double *>{"x_mm", &tile.x_mm},
              {"y_mm", &tile.y_mm}}) {
            const util::JsonValue *v = c.find(key);
            if (v == nullptr)
                return coreError(
                    origin, i, util::cat("missing \"", key, "\""));
            if (!v->isNumber() || !std::isfinite(v->number))
                return coreError(origin, i,
                                 util::cat("\"", key,
                                           "\" must be a finite "
                                           "number"));
            *dest = v->number;
        }
        tiles.push_back(std::move(tile));
    }

    const double s = thermal::Floorplan().dieSize();
    if (auto valid = validateTiles(tiles, s, origin); !valid)
        return valid.error();
    return ChipFloorplan(std::move(tiles));
}

util::Result<ChipFloorplan>
ChipFloorplan::tryLoad(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return util::RampError{
            util::ErrorCode::IoFailure,
            util::cat("cannot open floorplan ", path)};
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return util::RampError{
            util::ErrorCode::IoFailure,
            util::cat("read failed for floorplan ", path)};

    std::string parse_error;
    const auto doc = util::parseJson(text.str(), &parse_error);
    if (!doc)
        return util::RampError{
            util::ErrorCode::InvalidInput,
            util::cat(path, ": ", parse_error)};
    return tryParse(*doc, path);
}

std::vector<thermal::TileOrigin>
ChipFloorplan::origins() const
{
    std::vector<thermal::TileOrigin> out;
    for (const CoreTile &tile : tiles_)
        out.push_back({tile.x_mm, tile.y_mm});
    return out;
}

} // namespace cmp
} // namespace ramp
