#include "util/linalg.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/logging.hh"

namespace ramp {
namespace util {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m.at(i, i) = 1.0;
    return m;
}

double &
Matrix::at(std::size_t r, std::size_t c)
{
    return data_[r * cols_ + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    return data_[r * cols_ + c];
}

std::vector<double>
Matrix::mul(const std::vector<double> &x) const
{
    if (x.size() != cols_)
        panic(cat("Matrix::mul size mismatch: ", cols_, " vs ", x.size()));
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < cols_; ++c)
            acc += at(r, c) * x[c];
        y[r] = acc;
    }
    return y;
}

LinearFactors::LinearFactors(Matrix a) : lu_(std::move(a))
{
    const std::size_t n = lu_.rows();
    if (lu_.cols() != n)
        panic("solveLinear needs a square system");

    pivot_.reserve(n);
    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivot: find the largest magnitude entry in the column.
        std::size_t pivot = col;
        double best = std::fabs(lu_.at(col, col));
        for (std::size_t r = col + 1; r < n; ++r) {
            const double v = std::fabs(lu_.at(r, col));
            if (v > best) {
                best = v;
                pivot = r;
            }
        }
        if (best < 1e-300) {
            singular_ = RampError{ErrorCode::SingularSystem,
                                  cat("singular linear system (pivot ",
                                      best, " in column ", col, " of ",
                                      n, ")")};
            return;
        }
        pivot_.push_back(pivot);
        if (pivot != col)
            for (std::size_t c = col; c < n; ++c)
                std::swap(lu_.at(col, c), lu_.at(pivot, c));
        // Eliminate below, keeping each multiplier where it zeroed an
        // entry (nothing reads that entry again; later swaps start
        // at their own column, so it stays with this step).
        const double d = lu_.at(col, col);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu_.at(r, col) / d;
            lu_.at(r, col) = factor;
            if (factor == 0.0)
                continue;
            for (std::size_t c = col + 1; c < n; ++c)
                lu_.at(r, c) -= factor * lu_.at(col, c);
        }
    }
}

Result<std::vector<double>>
LinearFactors::solve(std::vector<double> b) const
{
    if (b.size() != lu_.rows())
        panic("solveLinear needs a square system");
    if (auto r = solveLanes(b, 1); !r)
        return r.error();
    return b;
}

namespace {

/**
 * Replay an elimination on lanes [first, first + W) of the
 * column-interleaved @p b (stride @p lanes), then back-substitute
 * them. W is a compile-time width so each lane's values stay in
 * registers; every lane still meets only its own entries, in the
 * order a lone right-hand side does.
 */
template <std::size_t W>
void
solveWidth(const Matrix &lu, const std::vector<std::size_t> &pivot,
           double *b, std::size_t lanes, std::size_t first)
{
    const std::size_t n = lu.rows();
    const double *a = lu.data(); // row-major, n x n
    const auto row = [&](std::size_t i) { return b + i * lanes + first; };
    for (std::size_t col = 0; col < n; ++col) {
        if (pivot[col] != col)
            std::swap_ranges(row(col), row(col) + W, row(pivot[col]));
        double p[W];
        for (std::size_t k = 0; k < W; ++k)
            p[k] = row(col)[k];
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = a[r * n + col];
            if (factor == 0.0)
                continue;
            double *dst = row(r);
            for (std::size_t k = 0; k < W; ++k)
                dst[k] -= factor * p[k];
        }
    }

    // Back substitution, in place: row i becomes x_i once every
    // later row already holds its x.
    for (std::size_t i = n; i-- > 0;) {
        double acc[W];
        for (std::size_t k = 0; k < W; ++k)
            acc[k] = row(i)[k];
        for (std::size_t c = i + 1; c < n; ++c) {
            const double u = a[i * n + c];
            const double *x = row(c);
            for (std::size_t k = 0; k < W; ++k)
                acc[k] -= u * x[k];
        }
        const double d = a[i * n + i];
        double *out = row(i);
        for (std::size_t k = 0; k < W; ++k)
            out[k] = acc[k] / d;
    }
}

} // namespace

Result<void>
LinearFactors::solveLanes(std::span<double> b, std::size_t lanes) const
{
    const std::size_t n = lu_.rows();
    if (b.size() != n * lanes)
        panic(cat("LinearFactors::solveLanes got ", b.size(),
                  " entries for ", lanes, " lanes of ", n));
    if (singular_)
        return *singular_;

    // Lanes go through in groups of 8, 4, 2 and 1; the grouping is
    // invisible, since no lane ever meets another lane's numbers.
    for (std::size_t first = 0; first < lanes;) {
        const std::size_t left = lanes - first;
        if (left >= 8) {
            solveWidth<8>(lu_, pivot_, b.data(), lanes, first);
            first += 8;
        } else if (left >= 4) {
            solveWidth<4>(lu_, pivot_, b.data(), lanes, first);
            first += 4;
        } else if (left >= 2) {
            solveWidth<2>(lu_, pivot_, b.data(), lanes, first);
            first += 2;
        } else {
            solveWidth<1>(lu_, pivot_, b.data(), lanes, first);
            first += 1;
        }
    }
    return {};
}

Result<std::vector<double>>
trySolveLinear(Matrix a, std::vector<double> b)
{
    return LinearFactors(std::move(a)).solve(std::move(b));
}

std::vector<double>
solveLinear(Matrix a, std::vector<double> b)
{
    auto result = trySolveLinear(std::move(a), std::move(b));
    if (!result)
        fatal(cat("solveLinear: ", result.error().str()));
    return std::move(result.value());
}

} // namespace util
} // namespace ramp
