/**
 * @file
 * Tests for the chip floorplan: built-in grids and strict JSON
 * validation with file:index diagnostics. The chip geometry the
 * coupled thermal network computes from a placement is pinned by the
 * ChipThermal steady-state goldens.
 */

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "cmp/floorplan.hh"
#include "util/json.hh"

namespace ramp::cmp {
namespace {

util::JsonValue
parseDoc(const std::string &text)
{
    std::string error;
    const auto doc = util::parseJson(text, &error);
    EXPECT_TRUE(doc.has_value()) << error;
    return *doc;
}

/** tryParse on a JSON literal, expecting rejection; returns the
 *  diagnostic message. */
std::string
rejectPlan(const std::string &text)
{
    const auto plan =
        ChipFloorplan::tryParse(parseDoc(text), "plan.json");
    EXPECT_FALSE(plan.ok());
    if (plan.ok())
        return "";
    EXPECT_EQ(plan.error().code, util::ErrorCode::InvalidInput);
    return plan.error().message;
}

TEST(ChipFloorplanGrid, BuiltInShapes)
{
    for (const std::size_t n : {1u, 2u, 4u, 8u}) {
        const auto plan = ChipFloorplan::grid(n);
        EXPECT_EQ(plan.numCores(), n);
        EXPECT_EQ(plan.tiles().size(), n);
    }
    const auto quad = ChipFloorplan::grid(4);
    const double s = quad.tileSize();
    EXPECT_GT(s, 0.0);
    // 2x2: core0 bottom-left, core1 bottom-right, core2 top-left,
    // core3 top-right.
    EXPECT_EQ(quad.tiles()[0].name, "core0");
    EXPECT_DOUBLE_EQ(quad.tiles()[1].x_mm, s);
    EXPECT_DOUBLE_EQ(quad.tiles()[1].y_mm, 0.0);
    EXPECT_DOUBLE_EQ(quad.tiles()[2].x_mm, 0.0);
    EXPECT_DOUBLE_EQ(quad.tiles()[2].y_mm, s);
}

TEST(ChipFloorplanGridDeath, UnsupportedCountIsFatal)
{
    EXPECT_EXIT(ChipFloorplan::grid(3), testing::ExitedWithCode(1),
                "no built-in 3-core grid");
    EXPECT_EXIT(ChipFloorplan::grid(0), testing::ExitedWithCode(1),
                "no built-in 0-core grid");
}

TEST(ChipFloorplanParse, AcceptsNamedPlacement)
{
    const auto plan = ChipFloorplan::tryParse(
        parseDoc("{\"cores\": ["
                 "{\"name\": \"left\", \"x_mm\": 0.0, \"y_mm\": 0.0},"
                 "{\"x_mm\": 4.5, \"y_mm\": 0.0}]}"),
        "plan.json");
    ASSERT_TRUE(plan.ok()) << plan.error().message;
    EXPECT_EQ(plan.value().numCores(), 2u);
    EXPECT_EQ(plan.value().tiles()[0].name, "left");
    EXPECT_EQ(plan.value().tiles()[1].name, "core1"); // default
    EXPECT_DOUBLE_EQ(plan.value().tiles()[1].x_mm, 4.5);
}

TEST(ChipFloorplanParse, RejectsMalformedRoots)
{
    EXPECT_NE(rejectPlan("[1, 2]").find(
                  "plan.json: floorplan root must be an object"),
              std::string::npos);
    EXPECT_NE(rejectPlan("{}").find("missing \"cores\" array"),
              std::string::npos);
    EXPECT_NE(rejectPlan("{\"cores\": 7}")
                  .find("\"cores\" must be an array"),
              std::string::npos);
    EXPECT_NE(rejectPlan("{\"cores\": []}")
                  .find("at least one core"),
              std::string::npos);
}

TEST(ChipFloorplanParse, RejectsMalformedCoresByIndex)
{
    // Diagnostics carry the origin and the offending core index.
    EXPECT_NE(rejectPlan("{\"cores\": ["
                         "{\"x_mm\": 0, \"y_mm\": 0}, 5]}")
                  .find("plan.json:cores[1]: core must be an object"),
              std::string::npos);
    EXPECT_NE(rejectPlan("{\"cores\": [{\"y_mm\": 0}]}")
                  .find("plan.json:cores[0]: missing \"x_mm\""),
              std::string::npos);
    EXPECT_NE(rejectPlan("{\"cores\": ["
                         "{\"x_mm\": 0, \"y_mm\": \"zero\"}]}")
                  .find("\"y_mm\" must be a finite number"),
              std::string::npos);
    EXPECT_NE(rejectPlan("{\"cores\": ["
                         "{\"x_mm\": 0, \"y_mm\": 0, \"name\": \"\"}"
                         "]}")
                  .find("\"name\" must be a non-empty string"),
              std::string::npos);
}

TEST(ChipFloorplanParse, RejectsDuplicateNames)
{
    const auto msg = rejectPlan(
        "{\"cores\": ["
        "{\"name\": \"c\", \"x_mm\": 0.0, \"y_mm\": 0.0},"
        "{\"name\": \"c\", \"x_mm\": 4.5, \"y_mm\": 0.0}]}");
    EXPECT_NE(msg.find("plan.json:cores[1]: duplicate core name 'c'"),
              std::string::npos);
    EXPECT_NE(msg.find("cores[0]"), std::string::npos);
}

TEST(ChipFloorplanParse, RejectsOverlappingTiles)
{
    const auto msg =
        rejectPlan("{\"cores\": ["
                   "{\"x_mm\": 0.0, \"y_mm\": 0.0},"
                   "{\"x_mm\": 2.0, \"y_mm\": 1.0}]}");
    EXPECT_NE(msg.find("plan.json:cores[1]: tile overlaps cores[0]"),
              std::string::npos);
}

TEST(ChipFloorplanParse, RejectsDisconnectedPlacement)
{
    // Two abutting tiles plus one floating far away.
    const auto msg =
        rejectPlan("{\"cores\": ["
                   "{\"x_mm\": 0.0, \"y_mm\": 0.0},"
                   "{\"x_mm\": 4.5, \"y_mm\": 0.0},"
                   "{\"x_mm\": 20.0, \"y_mm\": 20.0}]}");
    EXPECT_NE(msg.find("plan.json:cores[2]: tile is disconnected"),
              std::string::npos);
}

TEST(ChipFloorplanParse, CornerContactIsNotConnectivity)
{
    // Diagonal tiles share a corner point, not a border of positive
    // length; that is no lateral heat path.
    const auto msg =
        rejectPlan("{\"cores\": ["
                   "{\"x_mm\": 0.0, \"y_mm\": 0.0},"
                   "{\"x_mm\": 4.5, \"y_mm\": 4.5}]}");
    EXPECT_NE(msg.find("disconnected"), std::string::npos);
}

TEST(ChipFloorplanLoad, FileRoundTripAndErrors)
{
    const std::string path =
        testing::TempDir() + "ramp_cmp_floorplan_test.json";
    {
        std::ofstream out(path);
        out << "{\"cores\": [{\"x_mm\": 0.0, \"y_mm\": 0.0},"
               "{\"x_mm\": 0.0, \"y_mm\": 4.5}]}";
    }
    const auto plan = ChipFloorplan::tryLoad(path);
    ASSERT_TRUE(plan.ok()) << plan.error().message;
    EXPECT_EQ(plan.value().numCores(), 2u);

    {
        std::ofstream out(path);
        out << "{\"cores\": [";
    }
    const auto bad = ChipFloorplan::tryLoad(path);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, util::ErrorCode::InvalidInput);
    // Parse failures are prefixed with the file path.
    EXPECT_NE(bad.error().message.find(path), std::string::npos);
    std::remove(path.c_str());

    const auto missing =
        ChipFloorplan::tryLoad(path + ".does_not_exist");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, util::ErrorCode::IoFailure);
}

} // namespace
} // namespace ramp::cmp
