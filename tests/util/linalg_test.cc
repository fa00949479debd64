/**
 * @file
 * Tests for the dense matrix and the Gaussian-elimination solver.
 */

#include <cmath>
#include <cstddef>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "thermal/model.hh"
#include "util/linalg.hh"
#include "util/random.hh"

namespace ramp::util {
namespace {

/** Gaussian elimination of [A | b] in place, then back substitution:
 *  the one-shot solver LinearFactors must reproduce bit for bit. */
std::vector<double>
inPlaceSolve(Matrix a, std::vector<double> b)
{
    const std::size_t n = a.rows();
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        double best = std::fabs(a.at(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::fabs(a.at(r, col));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (pivot != col) {
            for (std::size_t c = col; c < n; ++c)
                std::swap(a.at(col, c), a.at(pivot, c));
            std::swap(b[col], b[pivot]);
        }
        const double d = a.at(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a.at(r, col) / d;
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                a.at(r, c) -= factor * a.at(col, c);
            b[r] -= factor * b[col];
        }
    }
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= a.at(i, c) * x[c];
        x[i] = acc / a.at(i, i);
    }
    return x;
}

/** One elimination of @p a solves several right-hand sides exactly
 *  as eliminating [A | b] afresh for each does. */
void
expectFactorsMatchInPlace(const Matrix &a, Rng &rng, double scale)
{
    const LinearFactors factors(a);
    for (int rhs = 0; rhs < 4; ++rhs) {
        std::vector<double> b(a.rows());
        for (auto &v : b)
            v = rng.uniform(0.0, scale);
        const auto got = factors.solve(b);
        ASSERT_TRUE(got.ok()) << got.error().str();
        const auto want = inPlaceSolve(a, b);
        ASSERT_EQ(got.value().size(), want.size());
        EXPECT_EQ(std::memcmp(got.value().data(), want.data(),
                              want.size() * sizeof(double)),
                  0)
            << "rhs " << rhs << " of a " << a.rows() << "-node system";
        const auto once = trySolveLinear(a, b);
        ASSERT_TRUE(once.ok());
        EXPECT_EQ(std::memcmp(once.value().data(), want.data(),
                              want.size() * sizeof(double)),
                  0);
    }
}

TEST(Matrix, ZeroInitialised)
{
    Matrix m(3, 2);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 2u);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(m.at(r, c), 0.0);
}

TEST(Matrix, IdentityTimesVector)
{
    const Matrix id = Matrix::identity(4);
    const std::vector<double> x{1.0, -2.0, 3.0, 0.5};
    EXPECT_EQ(id.mul(x), x);
}

TEST(Matrix, MulComputesProduct)
{
    Matrix m(2, 3);
    m.at(0, 0) = 1.0; m.at(0, 1) = 2.0; m.at(0, 2) = 3.0;
    m.at(1, 0) = 4.0; m.at(1, 1) = 5.0; m.at(1, 2) = 6.0;
    const auto y = m.mul({1.0, 1.0, 1.0});
    ASSERT_EQ(y.size(), 2u);
    EXPECT_DOUBLE_EQ(y[0], 6.0);
    EXPECT_DOUBLE_EQ(y[1], 15.0);
}

TEST(SolveLinear, SolvesKnownSystem)
{
    Matrix a(2, 2);
    a.at(0, 0) = 2.0; a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0; a.at(1, 1) = 3.0;
    const auto x = solveLinear(a, {5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(SolveLinear, NeedsPivoting)
{
    // Leading zero forces a row swap.
    Matrix a(2, 2);
    a.at(0, 0) = 0.0; a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0; a.at(1, 1) = 0.0;
    const auto x = solveLinear(a, {2.0, 3.0});
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(SolveLinear, RandomSystemsRoundTrip)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + rng.below(12);
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                a.at(r, c) = rng.uniform(-1.0, 1.0);
            a.at(r, r) += 4.0; // diagonally dominant => nonsingular
        }
        std::vector<double> x_true(n);
        for (auto &v : x_true)
            v = rng.uniform(-10.0, 10.0);
        const auto b = a.mul(x_true);
        const auto x = solveLinear(a, b);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], x_true[i], 1e-8);
    }
}

TEST(SolveLinear, ThermalShapedSystem)
{
    // Conductance-matrix shape: diagonal = sum of link conductances,
    // off-diagonal = -g. Solution temperatures must exceed ambient
    // injected via the RHS when power is positive.
    Matrix g(3, 3);
    const double g01 = 0.5, g12 = 0.25, g0a = 1.0, g2a = 0.1;
    g.at(0, 0) = g01 + g0a; g.at(0, 1) = -g01;
    g.at(1, 0) = -g01; g.at(1, 1) = g01 + g12; g.at(1, 2) = -g12;
    g.at(2, 1) = -g12; g.at(2, 2) = g12 + g2a;
    const double ambient_k = 318.0;
    const auto t = solveLinear(
        g, {10.0 + g0a * ambient_k, 5.0, 1.0 + g2a * ambient_k});
    for (double ti : t)
        EXPECT_GT(ti, ambient_k);
}

TEST(LinearFactors, RandomSystemsMatchInPlaceElimination)
{
    // Off-diagonal entries as large as the diagonal's margin, so the
    // pivot search does swap rows; exact zeros exercise the skipped
    // multipliers.
    Rng rng(47);
    for (int trial = 0; trial < 40; ++trial) {
        const std::size_t n = 1 + rng.below(24);
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                a.at(r, c) = rng.below(4) == 0 ? 0.0
                                               : rng.uniform(-1.0, 1.0);
            a.at(r, r) += static_cast<double>(n);
        }
        if (n > 2 && trial % 2 == 0) {
            // Swap two rows: still nonsingular, no longer dominant.
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a.at(0, c), a.at(n - 1, c));
        }
        expectFactorsMatchInPlace(a, rng, 10.0);
    }
}

TEST(LinearFactors, ThermalNetworksMatchInPlaceElimination)
{
    // The single-core (12-node) and eight-core 2x4 (82-node) steady
    // systems, with power-sized right-hand sides.
    Rng rng(53);
    const thermal::ThermalModel one;
    EXPECT_EQ(one.steadySystem().rows(), 12u);
    expectFactorsMatchInPlace(one.steadySystem(), rng, 30.0);

    const double edge = thermal::Floorplan().dieSize();
    std::vector<thermal::TileOrigin> tiles;
    for (int row = 0; row < 2; ++row)
        for (int col = 0; col < 4; ++col)
            tiles.push_back({col * edge, row * edge});
    const thermal::ThermalModel eight(tiles, thermal::ThermalParams{});
    EXPECT_EQ(eight.steadySystem().rows(), 82u);
    expectFactorsMatchInPlace(eight.steadySystem(), rng, 30.0);
}

TEST(LinearFactors, SingularSystemFailsEverySolve)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1.0; a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0; a.at(1, 1) = 4.0;
    const LinearFactors factors(a);
    for (int i = 0; i < 2; ++i) {
        const auto x = factors.solve({1.0, 2.0});
        ASSERT_FALSE(x.ok());
        EXPECT_EQ(x.error().code, ErrorCode::SingularSystem);
    }
}

TEST(LinearFactors, InterleavedLanesMatchInPlaceElimination)
{
    // K = 1..16 right-hand sides solved in one column-interleaved pass
    // are each, bit for bit, what eliminating [A | b] alone gives --
    // on random pivoting systems and on the single-core thermal one.
    Rng rng(59);
    std::vector<Matrix> systems{thermal::ThermalModel().steadySystem()};
    for (int trial = 0; trial < 6; ++trial) {
        const std::size_t n = 1 + rng.below(16);
        Matrix a(n, n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c)
                a.at(r, c) = rng.below(4) == 0 ? 0.0
                                               : rng.uniform(-1.0, 1.0);
            a.at(r, r) += static_cast<double>(n);
        }
        if (n > 2)
            for (std::size_t c = 0; c < n; ++c)
                std::swap(a.at(0, c), a.at(n - 1, c));
        systems.push_back(std::move(a));
    }
    for (const Matrix &a : systems) {
        const LinearFactors factors(a);
        const std::size_t n = a.rows();
        EXPECT_EQ(factors.size(), n);
        for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
            std::vector<std::vector<double>> rhs(lanes,
                                                 std::vector<double>(n));
            std::vector<double> b(n * lanes);
            for (std::size_t k = 0; k < lanes; ++k)
                for (std::size_t i = 0; i < n; ++i)
                    b[i * lanes + k] = rhs[k][i] = rng.uniform(-5.0, 30.0);
            ASSERT_TRUE(factors.solveLanes(b, lanes).ok());
            for (std::size_t k = 0; k < lanes; ++k) {
                const auto want = inPlaceSolve(a, rhs[k]);
                for (std::size_t i = 0; i < n; ++i)
                    EXPECT_EQ(std::memcmp(&b[i * lanes + k], &want[i],
                                          sizeof(double)),
                              0)
                        << "lane " << k << " of " << lanes << ", row "
                        << i << " of " << n;
            }
        }
    }
}

TEST(LinearFactors, SingularSystemFailsEveryLane)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1.0; a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0; a.at(1, 1) = 4.0;
    const LinearFactors factors(a);
    std::vector<double> b(2 * 3, 1.0);
    const auto r = factors.solveLanes(b, 3);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::SingularSystem);
}

TEST(SolveLinearDeath, SingularSystemIsFatal)
{
    Matrix a(2, 2);
    a.at(0, 0) = 1.0; a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0; a.at(1, 1) = 4.0;
    EXPECT_EXIT(solveLinear(a, {1.0, 2.0}), testing::ExitedWithCode(1),
                "singular");
}

TEST(SolveLinearDeath, NonSquarePanics)
{
    Matrix a(2, 3);
    EXPECT_DEATH(solveLinear(a, {1.0, 2.0}), "square");
}

} // namespace
} // namespace ramp::util
