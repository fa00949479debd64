/**
 * @file
 * bench_serve's request stream: `--seed` selects it, seed 1 stays the
 * reference stream the serve smokes have always driven, and any other
 * seed draws a different one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

// ramp-lint: allow(include-path): header-only bench/serve_mix.hh, wired in via a target include dir
#include "serve_mix.hh"
#include "workload/profile.hh"

namespace ramp {
namespace bench {
namespace {

/** The request keys of the 8-connection x 40-request stream at
 *  @p seed (the bench_serve_smoke shape). */
std::vector<std::string>
stream(std::uint64_t seed)
{
    const auto apps = workload::standardApps();
    std::vector<std::string> keys;
    for (std::size_t w = 0; w < 8; ++w)
        for (std::size_t s = 0; s < 40; ++s)
            keys.push_back(
                requestKey(mixedRequest(seed, w, s, apps)));
    return keys;
}

std::uint64_t
fnv1a(const std::vector<std::string> &keys)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &key : keys) {
        for (const char c : key + "\n") {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(ServeMix, SeedOneIsTheReferenceStream)
{
    // Pinned from the stream before --seed reached it: changing it
    // would silently change what the serve smokes exercise.
    EXPECT_EQ(fnv1a(stream(1)), 0x272c9f90135ea530ull);
}

TEST(ServeMix, SeedTwoDrawsADifferentStream)
{
    const auto one = stream(1);
    const auto two = stream(2);
    ASSERT_EQ(one.size(), two.size());
    std::size_t differ = 0;
    for (std::size_t i = 0; i < one.size(); ++i)
        differ += one[i] != two[i];
    EXPECT_GT(differ, one.size() / 2);
}

} // namespace
} // namespace bench
} // namespace ramp
