/**
 * @file
 * The one checked parser for integer command-line values, shared by
 * the daemons, the client and the benches. A value is accepted only
 * when it is plain ASCII digits within the caller's bounds: a sign,
 * whitespace, a radix prefix or trailing text is rejected, and so is
 * anything past the bound, so `--port 65536` or `--threads -1` is an
 * error naming the flag instead of a silently wrapped number.
 */

#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/error.hh"

namespace ramp {
namespace util {

/** Highest TCP port number, the bound for every port flag. */
inline constexpr std::uint64_t max_port = 65535;

/**
 * Parse @p value as an unsigned integer in [@p lo, @p hi]. On failure
 * the InvalidInput message names @p flag and quotes @p value.
 */
[[nodiscard]] Result<std::uint64_t>
parseFlagInt(std::string_view flag, std::string_view value,
             std::uint64_t lo, std::uint64_t hi);

/** Parse a comma-separated list of ports ("P1,P2,..."), each in
 *  [1, max_port]; an empty entry is an error. */
[[nodiscard]] Result<std::vector<std::uint16_t>>
parsePortList(std::string_view flag, std::string_view value);

} // namespace util
} // namespace ramp
