/**
 * @file
 * Small dense linear algebra for the thermal RC network.
 *
 * Thermal networks here have O(10) nodes, so a dense row-major matrix
 * with partial-pivot Gaussian elimination is both simpler and faster
 * than any sparse machinery.
 */

#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "util/error.hh"

namespace ramp {
namespace util {

/** Dense row-major matrix of doubles. */
class Matrix
{
  public:
    /** Create a rows x cols zero matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /** Identity matrix of size n. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Mutable element access (bounds-checked in debug builds). */
    double &at(std::size_t r, std::size_t c);

    /** Const element access. */
    double at(std::size_t r, std::size_t c) const;

    /** The entries, row-major. */
    const double *data() const { return data_.data(); }

    /** Matrix-vector product; x.size() must equal cols(). */
    std::vector<double> mul(const std::vector<double> &x) const;

  private:
    std::size_t rows_;
    std::size_t cols_;
    std::vector<double> data_;
};

/**
 * A square system eliminated once by partial-pivot Gaussian
 * elimination, so that any number of right-hand sides can be solved
 * against it. The elimination keeps its row swaps, its multipliers
 * (below the diagonal) and the upper triangle; a solve replays the
 * swaps and multipliers on b in the order the elimination made them,
 * then back-substitutes. Every entry of x therefore goes through the
 * same floating-point operations as eliminating [A | b] together --
 * also when several right-hand sides are solved in one pass, because
 * each one only ever meets its own entries.
 */
class LinearFactors
{
  public:
    /**
     * Eliminate @p a, which must be square (panics otherwise -- a
     * caller bug). A numerically singular system is remembered, and
     * every solve() returns it as ErrorCode::SingularSystem.
     */
    explicit LinearFactors(Matrix a);

    /** x with A x = b; b.size() must equal the system size. */
    [[nodiscard]] Result<std::vector<double>>
    solve(std::vector<double> b) const;

    /**
     * Solve @p lanes right-hand sides at once, in place and without
     * allocating. @p b is column-interleaved: entry i of lane k is
     * b[i * lanes + k], and b.size() must be size() * lanes. On
     * success b holds each lane's x in the same layout, bit for bit
     * what solve() returns for that lane alone.
     */
    [[nodiscard]] Result<void> solveLanes(std::span<double> b,
                                          std::size_t lanes) const;

    /** The system size n (A is n x n). */
    std::size_t size() const { return lu_.rows(); }

  private:
    Matrix lu_;
    std::vector<std::size_t> pivot_; ///< Row swapped in at each column.
    std::optional<RampError> singular_;
};

/**
 * Solve A x = b with partial-pivot Gaussian elimination (factor, then
 * solve). A must be square with A.rows() == b.size() (violating that
 * is a caller bug and panics). A numerically singular system is a
 * recoverable per-item failure and comes back as
 * ErrorCode::SingularSystem.
 */
[[nodiscard]] Result<std::vector<double>> trySolveLinear(Matrix a,
                                           std::vector<double> b);

/**
 * trySolveLinear that treats singularity as unrecoverable: calls
 * fatal(). For callers whose system is constructed from validated
 * user configuration and can only be singular if that configuration
 * is meaningless.
 */
std::vector<double> solveLinear(Matrix a, std::vector<double> b);

} // namespace util
} // namespace ramp

