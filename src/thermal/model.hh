/**
 * @file
 * Block-level RC thermal model (the HotSpot stand-in).
 *
 * Nodes: one silicon node per floorplan block per core tile
 * (tile-major order), a heat-spreader node and a heat-sink node
 * shared by every tile; the ambient is a fixed-temperature boundary.
 * Each block conducts vertically (die + TIM) into the spreader and
 * laterally into adjacent blocks -- within its tile by tile-local
 * geometry, and across a shared tile border by chip coordinates, so
 * a core's temperature depends on its neighbors' power. The spreader
 * conducts into the sink, and the sink convects to ambient. The
 * default placement is one tile at the origin: the single-core chip.
 *
 * Capacitances give the blocks millisecond time constants and the
 * sink a time constant of minutes -- which is why, exactly as the
 * paper describes in Section 6.3, transient simulations must be
 * initialised with a steady-state heat-sink temperature obtained
 * from a first averaging pass.
 */

#pragma once

#include <span>
#include <vector>

#include "sim/structures.hh"
#include "thermal/floorplan.hh"
#include "util/error.hh"
#include "util/linalg.hh"

namespace ramp {
namespace thermal {

/** Physical constants of the package model. */
struct ThermalParams
{
    /** Ambient (chassis) temperature, K. */
    double ambient_k = 300.0;

    /** Vertical (die + TIM) specific resistance, K*mm^2/W. */
    double r_vertical_mm2 = 21.0;

    /** Spreader -> sink conduction resistance, K/W. */
    double r_spreader = 0.12;

    /** Sink -> ambient convection resistance, K/W. */
    double r_convection = 0.90;

    /** Silicon thermal conductivity, W/(mm*K). */
    double k_silicon = 0.15;

    /** Die thickness, mm (drives lateral conduction and block C). */
    double die_thickness = 0.5;

    /** Silicon volumetric heat capacity, J/(mm^3*K). */
    double c_silicon = 1.63e-3;

    /** Spreader lumped capacitance, J/K. */
    double c_spreader = 3.0;

    /** Sink lumped capacitance, J/K (sets the minutes-scale RC). */
    double c_sink = 180.0;

    /** Die area multiplier relative to the 65 nm reference floorplan
     *  (technology-scaling studies shrink or grow the same layout;
     *  1.0 = the paper's 20.25 mm^2 die). Linear dimensions scale by
     *  its square root; lateral conductances are scale-invariant. */
    double area_scale = 1.0;
};

/** Per-tile block power maps (W), indexed by tile. A single map
 *  converts implicitly: it is the one tile of a one-tile model. */
struct TileMaps : std::span<const sim::PerStructure<double>>
{
    using span::span;
    TileMaps(const sim::PerStructure<double> &one) : span(&one, 1) {}
};

/** Result of a steady-state solve. */
struct SteadyTemps
{
    /** Block temperatures, tile-major: block i of tile c is
     *  block_k[c * sim::num_structures + i]. */
    std::vector<double> block_k;
    double spreader_k = 0.0;
    double sink_k = 0.0;

    /** One tile's block temperatures. */
    sim::PerStructure<double> tile(std::size_t c = 0) const;

    /** Hottest block temperature on one tile. */
    double maxBlock(std::size_t c = 0) const { return sim::maxOf(tile(c)); }

    /** Area-weighted average block temperature on one tile. */
    double avgBlock(std::size_t c = 0) const
    {
        return sim::areaWeightedMean(tile(c));
    }
};

/** The RC network with steady-state and transient solvers. */
class ThermalModel
{
  public:
    /** One tile at the origin (the single-core chip). */
    explicit ThermalModel(ThermalParams params = {})
        : ThermalModel({TileOrigin{}}, params)
    {
    }

    /**
     * One core tile per origin, all sharing the package. The caller
     * validates the placement (cmp::ChipFloorplan does: no overlap,
     * connected); tiles that do not abut simply do not conduct
     * laterally.
     */
    ThermalModel(std::vector<TileOrigin> tiles, ThermalParams params);

    /**
     * Steady-state temperatures for fixed per-tile per-block power
     * maps (W). The conductance system does not depend on power, so
     * it was eliminated once when the network was built; a solve
     * replays that elimination on the power vector. Does not modify
     * transient state, and is safe to call concurrently. @p power_w must
     * carry one map per tile (panic otherwise -- a caller bug).
     * Negative or non-finite block power is an InvalidInput /
     * NonFiniteValue error naming the core and structure (a
     * corrupted power sample must not crash the control loop); a
     * singular conductance system is propagated as SingularSystem.
     */
    [[nodiscard]] util::Result<SteadyTemps>
    trySteadyState(TileMaps power_w) const;

    /**
     * Load lane @p lane of a batch of steady solves: b = P + g_amb *
     * T_amb for @p power_w, into the column-interleaved @p b (node i
     * of lane k at b[i * lanes + k], nodes() rows). Counts one steady
     * solve. Negative or non-finite block power is the error
     * trySteadyState reports for it, and the lane's entries are then
     * unspecified.
     */
    [[nodiscard]] util::Result<void>
    loadSteadyLane(TileMaps power_w, std::span<double> b,
                   std::size_t lanes, std::size_t lane) const;

    /**
     * Solve every lane of @p b (loaded by loadSteadyLane) in place, in
     * one pass over the once-eliminated system: each lane ends holding
     * its node temperatures, bit for bit what trySteadyState gives it
     * alone. Lanes whose load failed are solved too, to unspecified
     * values. A singular system is every lane's SingularSystem.
     */
    [[nodiscard]] util::Result<void>
    solveSteadyLanes(std::span<double> b, std::size_t lanes) const;

    /** Nodes of the steady system: the blocks tile-major, then the
     *  spreader, then the sink (the last node). */
    std::size_t nodes() const { return blockNodes() + 2; }

    /**
     * trySteadyState that treats any failure as unrecoverable (calls
     * fatal). For callers whose power map comes from validated model
     * output rather than a fault-prone measurement path.
     */
    SteadyTemps steadyState(TileMaps power_w) const;

    /**
     * Initialise the transient state to the steady state of the given
     * power maps (the paper's two-pass heat-sink initialisation).
     */
    void initialiseSteady(TileMaps power_w);

    /** Set every node (including spreader and sink) to a temperature. */
    void initialiseFlat(double temp_k);

    /**
     * Advance the transient state by dt seconds with constant power.
     * Internally sub-steps for stability.
     */
    void step(TileMaps power_w, double dt_s);

    /** Current transient block temperatures of one tile. */
    sim::PerStructure<double> blockTemps(std::size_t tile = 0) const;

    /** Current transient sink temperature. */
    double sinkTemp() const { return state_[sink_]; }

    std::size_t numTiles() const { return tiles_.size(); }
    const ThermalParams &params() const { return params_; }

    /** The steady-state system matrix A of A*T = P + g_amb*T_amb, one
     *  row per node (blocks tile-major, then spreader, then sink). */
    util::Matrix steadySystem() const;

  private:
    std::size_t blockNodes() const
    {
        return tiles_.size() * sim::num_structures;
    }
    void buildNetwork();
    /** Panics unless @p power_w carries one map per tile. */
    void checkTiles(TileMaps power_w) const;
    std::vector<double> derivative(const std::vector<double> &temps,
                                   TileMaps power_w) const;

    ThermalParams params_;
    Floorplan floorplan_;         ///< The layout every tile repeats.
    std::vector<TileOrigin> tiles_;

    std::size_t spreader_;  ///< Node index of the spreader.
    std::size_t sink_;      ///< Node index of the sink.

    /** Conductance matrix G (W/K), nodes x nodes, ambient folded into
     *  g_amb_. G is symmetric with zero diagonal (link conductances). */
    util::Matrix g_;
    std::vector<double> g_amb_;  ///< Node -> ambient conductance.
    std::vector<double> cap_;    ///< Node capacitance, J/K.
    std::vector<double> state_;  ///< Transient node temperatures, K.
    double max_stable_dt_;       ///< Explicit-Euler stability bound.
    /** The steady system, eliminated once when the network is built. */
    util::LinearFactors steady_;
};

} // namespace thermal
} // namespace ramp

