/**
 * @file
 * Tests for the checked integer flag parser (util/flags.hh): plain
 * digits within the bounds are accepted, and everything strtoull
 * would have wrapped or truncated is an error naming the flag.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/flags.hh"

namespace ramp {
namespace util {
namespace {

TEST(Flags, AcceptsDigitsWithinBounds)
{
    EXPECT_EQ(parseFlagInt("--port", "0", 0, max_port).value(), 0u);
    EXPECT_EQ(parseFlagInt("--port", "65535", 0, max_port).value(),
              65535u);
    EXPECT_EQ(parseFlagInt("--n", "007", 1, 10).value(), 7u);
    EXPECT_EQ(parseFlagInt("--seed", "18446744073709551615", 0,
                           UINT64_MAX)
                  .value(),
              UINT64_MAX);
}

TEST(Flags, RejectsWhatStrtoullWouldWrapOrTruncate)
{
    for (const char *value :
         {"", "-1", "+1", " 1", "1 ", "0x10", "1e3", "abc", "12abc",
          "65536", "99999999999999999999999"}) {
        const auto n = parseFlagInt("--port", value, 0, max_port);
        ASSERT_FALSE(n.ok()) << "'" << value << "'";
        EXPECT_EQ(n.error().code, ErrorCode::InvalidInput);
        EXPECT_NE(n.error().message.find("--port"), std::string::npos);
        EXPECT_NE(n.error().message.find(value), std::string::npos);
    }
    // One past the 64-bit range must not wrap back into bounds.
    EXPECT_FALSE(
        parseFlagInt("--seed", "18446744073709551616", 0, UINT64_MAX)
            .ok());
    EXPECT_FALSE(parseFlagInt("--threads", "0", 1, 8).ok());
    EXPECT_FALSE(parseFlagInt("--threads", "9", 1, 8).ok());
}

TEST(Flags, PortListsAreCheckedEntryByEntry)
{
    const auto ports = parsePortList("--peers", "7001,7002");
    ASSERT_TRUE(ports.ok()) << ports.error().str();
    EXPECT_EQ(ports.value(), (std::vector<std::uint16_t>{7001, 7002}));
    for (const char *value : {"", "7001,", ",7001", "7001,,7002",
                              "70000", "0", "7001,-1"}) {
        const auto bad = parsePortList("--peers", value);
        ASSERT_FALSE(bad.ok()) << "'" << value << "'";
        EXPECT_NE(bad.error().message.find("--peers"),
                  std::string::npos);
    }
}

} // namespace
} // namespace util
} // namespace ramp
