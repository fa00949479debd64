/**
 * @file
 * The N-tile thermal network on chip placements: hex-float goldens
 * pinning the 1- and 4-tile steady solves bit for bit, energy
 * balance, reciprocity (the network symmetry), cross-core coupling,
 * monotonicity in a neighbor's power, and translation invariance.
 */

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cmp/floorplan.hh"
#include "thermal/model.hh"
#include "util/json.hh"

namespace ramp::cmp {
namespace {

using sim::num_structures;
using sim::PerStructure;
using thermal::SteadyTemps;
using thermal::ThermalModel;

PerStructure<double>
flatPower(double watts_per_block)
{
    PerStructure<double> p;
    p.fill(watts_per_block);
    return p;
}

/** A power map that differs per block and per tile, so lateral and
 *  cross-tile terms all matter. */
PerStructure<double>
asymmetricPower(std::size_t tile)
{
    PerStructure<double> p;
    for (std::size_t i = 0; i < num_structures; ++i)
        p[i] = 0.3 + 0.2 * static_cast<double>(i) +
               0.7 * static_cast<double>(tile);
    p[(3 * tile) % num_structures] += 2.0;
    return p;
}

ThermalModel
chipModel(const ChipFloorplan &plan)
{
    return ThermalModel(plan.origins(), {});
}

SteadyTemps
solve(const ThermalModel &model,
      const std::vector<PerStructure<double>> &power)
{
    auto t = model.trySteadyState(power);
    EXPECT_TRUE(t.ok()) << (t.ok() ? "" : t.error().message);
    return std::move(t.value());
}

void
expectTemps(const SteadyTemps &got,
            const std::vector<PerStructure<double>> &want_k,
            double spreader_k, double sink_k)
{
    ASSERT_EQ(got.block_k.size(), want_k.size() * num_structures);
    for (std::size_t c = 0; c < want_k.size(); ++c)
        for (std::size_t i = 0; i < num_structures; ++i)
            EXPECT_EQ(got.tile(c)[i], want_k[c][i]) << c << "/" << i;
    EXPECT_EQ(got.spreader_k, spreader_k);
    EXPECT_EQ(got.sink_k, sink_k);
}

TEST(ChipThermal, OneTileSteadyStateMatchesGolden)
{
    // Captured from the separate single-core network this one
    // replaced; any change to the conductances or to the assembly
    // order shows up here bit for bit.
    const std::vector<PerStructure<double>> want_k{
        {0x1.4a731a2d2f806p+8, 0x1.44bb6c849eb9dp+8, 0x1.4966edfbccb5ep+8,
         0x1.47882d0a8fc8ep+8, 0x1.4c5193a7775dbp+8, 0x1.4a443bc873f23p+8,
         0x1.4ba1b671a02dap+8, 0x1.44aaab6e70dbp+8, 0x1.4cc761fad6a9ap+8,
         0x1.505d390942339p+8}};
    const SteadyTemps got =
        ThermalModel().steadyState(asymmetricPower(0));
    expectTemps(got, want_k, 0x1.3a47ae147ae31p+8, 0x1.38999999999b3p+8);
    // A one-core chip placement is the same network.
    expectTemps(solve(chipModel(ChipFloorplan::grid(1)),
                      {asymmetricPower(0)}),
                want_k, 0x1.3a47ae147ae31p+8, 0x1.38999999999b3p+8);
}

TEST(ChipThermal, FourTileSteadyStateMatchesGolden)
{
    // Captured from the separate chip network this one replaced.
    const std::vector<PerStructure<double>> want_k{
        {0x1.a1dd2322f3096p+8, 0x1.9e52b3a86140ep+8, 0x1.a070b9a19cee7p+8,
         0x1.a001efba9dc8bp+8, 0x1.a33dd9877aa1fp+8, 0x1.a2f5b3d1b7cc5p+8,
         0x1.a878d8cb5b156p+8, 0x1.a285bc506e1ecp+8, 0x1.a35d91613e3a3p+8,
         0x1.a7f06f231882bp+8},
        {0x1.a31283f506075p+8, 0x1.a39768e239999p+8, 0x1.a71e67f02b1d5p+8,
         0x1.ae95995c13de5p+8, 0x1.a960d0c5a18efp+8, 0x1.a74dc8de784d1p+8,
         0x1.ac47db06ce4b5p+8, 0x1.a906e471680acp+8, 0x1.a92fc36c6daebp+8,
         0x1.aea02177232bcp+8},
        {0x1.a77edc9fbab52p+8, 0x1.a5f1bee6d7af9p+8, 0x1.acf4e7ae6bf02p+8,
         0x1.ad1208b8fc241p+8, 0x1.ab38c97bb41f9p+8, 0x1.ae33f6ee48b66p+8,
         0x1.bad43123be22fp+8, 0x1.a55ce22ef1884p+8, 0x1.abcf1d2391a53p+8,
         0x1.b1ca5d10b8b99p+8},
        {0x1.ade48a8034fcp+8, 0x1.aa87fbab9fabfp+8, 0x1.b3eb426a92f02p+8,
         0x1.b6c269c21646ap+8, 0x1.b409e02948b81p+8, 0x1.b4b2b3f4db5b7p+8,
         0x1.b9b88700e8002p+8, 0x1.a948bdbc2deffp+8, 0x1.b2fe119afafep+8,
         0x1.c1a4a017fab96p+8}};
    std::vector<PerStructure<double>> power;
    for (std::size_t c = 0; c < 4; ++c)
        power.push_back(asymmetricPower(c));
    expectTemps(solve(chipModel(ChipFloorplan::grid(4)), power), want_k,
                0x1.8ff5c28f5c2d5p+8, 0x1.8433333333371p+8);
}

TEST(ChipThermal, ZeroPowerIsAmbientEverywhere)
{
    const ThermalModel model = chipModel(ChipFloorplan::grid(4));
    const auto t =
        solve(model, std::vector<PerStructure<double>>(
                         4, flatPower(0.0)));
    for (std::size_t c = 0; c < 4; ++c)
        for (double temp_k : t.tile(c))
            EXPECT_NEAR(temp_k, model.params().ambient_k, 1e-6);
    EXPECT_NEAR(t.sink_k, model.params().ambient_k, 1e-6);
}

TEST(ChipThermal, EnergyBalanceAtTheSharedSink)
{
    // All injected power leaves through the one shared sink:
    // T_sink - T_amb = P_total * R_convection, at any core count.
    for (const std::size_t cores : {2u, 4u, 8u}) {
        const ThermalModel model =
            chipModel(ChipFloorplan::grid(cores));
        std::vector<PerStructure<double>> power;
        double total = 0.0;
        for (std::size_t c = 0; c < cores; ++c) {
            const double per_block = 0.5 + 0.25 * c;
            power.push_back(flatPower(per_block));
            total += per_block * num_structures;
        }
        const auto t = solve(model, power);
        EXPECT_NEAR(t.sink_k - model.params().ambient_k,
                    total * model.params().r_convection, 1e-6)
            << cores << " cores";
    }
}

TEST(ChipThermal, ReciprocityAcrossCores)
{
    // The conductance network is symmetric, so the temperature rise
    // at node j per watt injected at node i equals the rise at i per
    // watt injected at j -- even across different cores. This pins
    // the cross-tile coupling terms to a physical (symmetric)
    // network, not just any perturbation.
    const ThermalModel model = chipModel(ChipFloorplan::grid(2));
    const std::vector<PerStructure<double>> idle(2, flatPower(0.0));
    const auto base = solve(model, idle);

    const std::size_t block_i = 0;
    const std::size_t block_j = num_structures - 1;
    auto bump = [&](std::size_t core, std::size_t block) {
        auto power = idle;
        power[core][block] = 1.0;
        return solve(model, power);
    };
    const auto inject_0 = bump(0, block_i);
    const auto inject_1 = bump(1, block_j);
    const double rise_at_1 =
        inject_0.tile(1)[block_j] - base.tile(1)[block_j];
    const double rise_at_0 =
        inject_1.tile(0)[block_i] - base.tile(0)[block_i];
    EXPECT_GT(rise_at_1, 0.0);
    EXPECT_NEAR(rise_at_1, rise_at_0, 1e-9);
}

TEST(ChipThermal, NeighborPowerWarmsEveryTile)
{
    // Cross-core coupling: raising ONLY core1's power strictly warms
    // every structure of idle core0 (through the die laterally and
    // through the shared spreader), and monotonically -- more
    // neighbor power, more heat.
    const ThermalModel model = chipModel(ChipFloorplan::grid(2));
    auto with_neighbor = [&](double watts) {
        return solve(model, {flatPower(1.0), flatPower(watts)});
    };
    const auto cool = with_neighbor(0.0);
    const auto warm = with_neighbor(2.0);
    const auto hot = with_neighbor(6.0);
    for (std::size_t i = 0; i < num_structures; ++i) {
        EXPECT_GT(warm.tile(0)[i], cool.tile(0)[i]) << i;
        EXPECT_GT(hot.tile(0)[i], warm.tile(0)[i]) << i;
    }
    // And the loaded core is hotter than the idle one.
    EXPECT_GT(hot.maxBlock(1), hot.maxBlock(0));
}

TEST(ChipThermal, CouplingDecaysWithDistance)
{
    // On an 8-core 4x2 grid, heating one corner core raises the
    // adjacent core's temperature more than the far corner's.
    const ThermalModel model = chipModel(ChipFloorplan::grid(8));
    std::vector<PerStructure<double>> power(8, flatPower(0.0));
    power[0] = flatPower(5.0);
    const auto t = solve(model, power);
    // core1 abuts core0; core7 is the opposite corner.
    EXPECT_GT(t.maxBlock(1), t.maxBlock(7));
    // Everyone still sits above ambient -- the spreader couples all.
    for (std::size_t c = 0; c < 8; ++c)
        EXPECT_GT(t.maxBlock(c), model.params().ambient_k);
}

TEST(ChipThermal, TranslationInvariance)
{
    // The same relative placement at a different chip origin is the
    // same network: absolute coordinates must not leak into the
    // conductances beyond rounding.
    std::string error;
    const auto near_doc = util::parseJson(
        "{\"cores\": [{\"x_mm\": 0.0, \"y_mm\": 0.0},"
        "{\"x_mm\": 4.5, \"y_mm\": 0.0}]}",
        &error);
    const auto far_doc = util::parseJson(
        "{\"cores\": [{\"x_mm\": 16.0, \"y_mm\": 8.0},"
        "{\"x_mm\": 20.5, \"y_mm\": 8.0}]}",
        &error);
    ASSERT_TRUE(near_doc && far_doc) << error;
    const auto near_plan =
        ChipFloorplan::tryParse(*near_doc, "near");
    const auto far_plan = ChipFloorplan::tryParse(*far_doc, "far");
    ASSERT_TRUE(near_plan.ok() && far_plan.ok());

    const ThermalModel near_model = chipModel(near_plan.value());
    const ThermalModel far_model = chipModel(far_plan.value());
    const std::vector<PerStructure<double>> power{flatPower(3.0),
                                                  flatPower(0.5)};
    const auto a = solve(near_model, power);
    const auto b = solve(far_model, power);
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t i = 0; i < num_structures; ++i)
            EXPECT_NEAR(a.tile(c)[i], b.tile(c)[i], 1e-9);
}

TEST(ChipThermal, RejectsBadPower)
{
    const ThermalModel model = chipModel(ChipFloorplan::grid(2));
    std::vector<PerStructure<double>> power(2, flatPower(1.0));
    power[1][3] = -0.5;
    auto negative = model.trySteadyState(power);
    ASSERT_FALSE(negative.ok());
    EXPECT_EQ(negative.error().code, util::ErrorCode::InvalidInput);
    EXPECT_NE(negative.error().message.find("core 1"),
              std::string::npos);

    power[1][3] = std::numeric_limits<double>::quiet_NaN();
    auto nan = model.trySteadyState(power);
    ASSERT_FALSE(nan.ok());
    EXPECT_EQ(nan.error().code, util::ErrorCode::NonFiniteValue);
}

} // namespace
} // namespace ramp::cmp
