#include "thermal/model.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace ramp {
namespace thermal {

using sim::allStructures;
using sim::num_structures;
using sim::PerStructure;
using sim::structureIndex;

PerStructure<double>
SteadyTemps::tile(std::size_t c) const
{
    PerStructure<double> t{};
    for (std::size_t i = 0; i < num_structures; ++i)
        t[i] = block_k[c * num_structures + i];
    return t;
}

ThermalModel::ThermalModel(std::vector<TileOrigin> tiles,
                           ThermalParams params)
    : params_(params), tiles_(std::move(tiles)),
      spreader_(blockNodes()), sink_(blockNodes() + 1),
      g_(nodes(), nodes()), g_amb_(nodes(), 0.0), cap_(nodes(), 0.0),
      state_(nodes(), params.ambient_k), steady_(util::Matrix(0, 0))
{
    if (tiles_.empty())
        util::fatal("thermal model needs at least one tile");
    if (params_.ambient_k <= 0.0)
        util::fatal("ambient temperature must be positive kelvin");
    if (params_.r_vertical_mm2 <= 0.0 || params_.r_spreader <= 0.0 ||
        params_.r_convection <= 0.0)
        util::fatal("thermal resistances must be positive");
    if (params_.c_sink <= 0.0 || params_.c_spreader <= 0.0 ||
        params_.c_silicon <= 0.0)
        util::fatal("thermal capacitances must be positive");
    if (params_.area_scale <= 0.0)
        util::fatal("thermal area scale must be positive");
    buildNetwork();
}

void
ThermalModel::buildNetwork()
{
    // Every G entry is written exactly once, so the assembled system
    // does not depend on the order of the loops below.
    const std::size_t n_tiles = numTiles();
    const auto node = [](std::size_t tile, sim::StructureId id) {
        return tile * num_structures + structureIndex(id);
    };
    const auto link = [&](std::size_t i, std::size_t j, double g) {
        g_.at(i, j) += g;
        g_.at(j, i) += g;
    };

    // Vertical block -> spreader conduction. Block areas carry the
    // technology area scale; lateral conductances do not (border and
    // distance shrink together).
    for (std::size_t c = 0; c < n_tiles; ++c)
        for (auto id : allStructures())
            link(node(c, id), spreader_,
                 floorplan_.block(id).area() * params_.area_scale /
                     params_.r_vertical_mm2);

    // Lateral block <-> block conduction through the die: within a
    // tile by tile-local geometry, across abutting tiles by chip
    // coordinates.
    const double kt = params_.k_silicon * params_.die_thickness;
    for (std::size_t c = 0; c < n_tiles; ++c) {
        for (auto a : allStructures()) {
            for (auto b : allStructures()) {
                if (structureIndex(b) <= structureIndex(a))
                    continue;
                const double border = floorplan_.sharedBorder(a, b);
                if (border > 0.0)
                    link(node(c, a), node(c, b),
                         kt * border /
                             floorplan_.centerDistance(a, b));
            }
        }
    }
    const double s = floorplan_.dieSize();
    for (std::size_t c = 0; c < n_tiles; ++c) {
        for (std::size_t d = c + 1; d < n_tiles; ++d) {
            if (sharedBorder(tiles_[c].footprint(s),
                             tiles_[d].footprint(s)) <= 1e-9)
                continue;
            for (auto a : allStructures()) {
                const Block p = tiles_[c].place(floorplan_.block(a));
                for (auto b : allStructures()) {
                    const Block q = tiles_[d].place(floorplan_.block(b));
                    const double border = sharedBorder(p, q);
                    if (border > 0.0)
                        link(node(c, a), node(d, b),
                             kt * border / centerDistance(p, q));
                }
            }
        }
    }

    // Shared spreader -> shared sink, sink -> ambient.
    link(spreader_, sink_, 1.0 / params_.r_spreader);
    g_amb_[sink_] = 1.0 / params_.r_convection;

    // Capacitances.
    for (std::size_t c = 0; c < n_tiles; ++c)
        for (auto id : allStructures())
            cap_[node(c, id)] = params_.c_silicon *
                                (floorplan_.block(id).area() *
                                 params_.area_scale *
                                 params_.die_thickness);
    cap_[spreader_] = params_.c_spreader;
    cap_[sink_] = params_.c_sink;

    // Explicit-Euler stability: dt < min_i C_i / (sum_j g_ij + g_amb).
    max_stable_dt_ = 1e30;
    for (std::size_t i = 0; i < nodes(); ++i) {
        double gsum = g_amb_[i];
        for (std::size_t j = 0; j < nodes(); ++j)
            gsum += g_.at(i, j);
        if (gsum > 0.0)
            max_stable_dt_ =
                std::min(max_stable_dt_, cap_[i] / gsum);
    }
    max_stable_dt_ *= 0.5; // safety margin

    // A does not depend on power, so it is eliminated here, once; each
    // steady solve only replays the elimination on its b.
    steady_ = util::LinearFactors(steadySystem());
}

util::Matrix
ThermalModel::steadySystem() const
{
    // A_ii = sum_j g_ij + g_amb_i, A_ij = -g_ij.
    const std::size_t n = nodes();
    util::Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        double diag = g_amb_[i];
        for (std::size_t j = 0; j < n; ++j) {
            diag += g_.at(i, j);
            if (i != j && g_.at(i, j) > 0.0)
                a.at(i, j) = -g_.at(i, j);
        }
        a.at(i, i) = diag;
    }
    return a;
}

void
ThermalModel::checkTiles(TileMaps power_w) const
{
    if (power_w.size() != numTiles())
        util::panic(util::cat("thermal model got ", power_w.size(),
                              " power maps for ", numTiles(),
                              " tiles"));
}

util::Result<void>
ThermalModel::loadSteadyLane(TileMaps power_w, std::span<double> b,
                             std::size_t lanes, std::size_t lane) const
{
    static const telemetry::Counter solves =
        telemetry::counter("thermal.steady_solves");
    solves.add();

    // b_i = P_i + g_amb_i * T_amb, against the network's eliminated A.
    checkTiles(power_w);
    for (std::size_t i = 0; i < nodes(); ++i) {
        double &bi = b[i * lanes + lane];
        bi = g_amb_[i] * params_.ambient_k;
        if (i < blockNodes()) {
            const double p = power_w[i / num_structures][i % num_structures];
            const bool finite = std::isfinite(p);
            if (!finite || p < 0.0)
                return util::RampError{
                    finite ? util::ErrorCode::InvalidInput
                           : util::ErrorCode::NonFiniteValue,
                    util::cat(finite ? "negative" : "non-finite",
                              " block power ", p, " at core ",
                              i / num_structures, " structure ",
                              i % num_structures, " in thermal solve")};
            bi += p;
        }
    }
    return {};
}

util::Result<void>
ThermalModel::solveSteadyLanes(std::span<double> b,
                               std::size_t lanes) const
{
    return steady_.solveLanes(b, lanes);
}

util::Result<SteadyTemps>
ThermalModel::trySteadyState(TileMaps power_w) const
{
    std::vector<double> b(nodes(), 0.0);
    if (auto r = loadSteadyLane(power_w, b, 1, 0); !r)
        return r.error();
    if (auto r = solveSteadyLanes(b, 1); !r)
        return r.error();

    SteadyTemps out;
    out.block_k = std::move(b);
    out.spreader_k = out.block_k[spreader_];
    out.sink_k = out.block_k[sink_];
    out.block_k.resize(blockNodes());
    return out;
}

SteadyTemps
ThermalModel::steadyState(TileMaps power_w) const
{
    auto result = trySteadyState(power_w);
    if (!result)
        util::fatal(util::cat("thermal steady state: ",
                              result.error().str()));
    return std::move(result.value());
}

void
ThermalModel::initialiseSteady(TileMaps power_w)
{
    const SteadyTemps s = steadyState(power_w);
    for (std::size_t i = 0; i < blockNodes(); ++i)
        state_[i] = s.block_k[i];
    state_[spreader_] = s.spreader_k;
    state_[sink_] = s.sink_k;
}

void
ThermalModel::initialiseFlat(double temp_k)
{
    std::fill(state_.begin(), state_.end(), temp_k);
}

std::vector<double>
ThermalModel::derivative(const std::vector<double> &temps,
                         TileMaps power_w) const
{
    std::vector<double> d(nodes(), 0.0);
    for (std::size_t i = 0; i < nodes(); ++i) {
        double q = 0.0;
        if (i < blockNodes())
            q += power_w[i / num_structures][i % num_structures];
        for (std::size_t j = 0; j < nodes(); ++j) {
            const double g = g_.at(i, j);
            if (g > 0.0)
                q += g * (temps[j] - temps[i]);
        }
        q += g_amb_[i] * (params_.ambient_k - temps[i]);
        d[i] = q / cap_[i];
    }
    return d;
}

void
ThermalModel::step(TileMaps power_w, double dt_s)
{
    if (dt_s <= 0.0)
        util::fatal("thermal step needs dt > 0");
    static const telemetry::Counter steps =
        telemetry::counter("thermal.transient_steps");
    static const telemetry::Counter substeps =
        telemetry::counter("thermal.transient_substeps");
    steps.add();
    checkTiles(power_w);
    std::uint64_t subs = 0;
    double remaining = dt_s;
    while (remaining > 0.0) {
        const double h = std::min(remaining, max_stable_dt_);
        const auto d = derivative(state_, power_w);
        for (std::size_t i = 0; i < nodes(); ++i)
            state_[i] += h * d[i];
        remaining -= h;
        ++subs;
    }
    substeps.add(subs);
}

PerStructure<double>
ThermalModel::blockTemps(std::size_t tile) const
{
    PerStructure<double> t{};
    for (std::size_t i = 0; i < num_structures; ++i)
        t[i] = state_[tile * num_structures + i];
    return t;
}

} // namespace thermal
} // namespace ramp
