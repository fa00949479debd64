/**
 * @file
 * Order statistics shared by ramp_bench and bench_compare.
 */

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <vector>

#include "util/stats.hh"

namespace ramp {
namespace bench {

/** Nearest-rank percentile of an unsorted sample (copied, sorted);
 *  0 for an empty sample. Infinite entries (failed requests) sort
 *  last, so a failure counts as missing every latency limit. */
inline double
nearestRank(std::vector<double> sample, double p)
{
    if (sample.empty())
        return 0.0;
    std::sort(sample.begin(), sample.end());
    return util::percentile(sample, p);
}

/**
 * Quartiles exactly as Python's statistics.quantiles(data, n=4) gives
 * them (the default "exclusive" method), so bench_compare and the
 * acceptance arithmetic agree digit for digit. Needs two or more
 * values; a single value is its own three quartiles.
 */
inline std::array<double, 3>
quartiles(std::vector<double> data)
{
    std::sort(data.begin(), data.end());
    const std::size_t ld = data.size();
    if (ld == 0)
        return {0.0, 0.0, 0.0};
    if (ld == 1)
        return {data[0], data[0], data[0]};
    constexpr std::size_t n = 4;
    const std::size_t m = ld + 1;
    std::array<double, 3> out{};
    for (std::size_t i = 1; i < n; ++i) {
        std::size_t j = i * m / n;
        j = std::clamp<std::size_t>(j, 1, ld - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * n);
        out[i - 1] = (data[j - 1] * (static_cast<double>(n) - delta) +
                      data[j] * delta) /
                     static_cast<double>(n);
    }
    return out;
}

/** Median as the middle quartile (the mean of the middle two for an
 *  even count). */
inline double
median(const std::vector<double> &data)
{
    return quartiles(data)[1];
}

} // namespace bench
} // namespace ramp
