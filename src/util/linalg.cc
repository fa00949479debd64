#include "util/linalg.hh"

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
    const std::size_t n = lu_.rows();
    if (b.size() != n)
        panic("solveLinear needs a square system");
    if (singular_)
        return *singular_;

    // Replay the elimination on b, step by step.
    for (std::size_t col = 0; col < n; ++col) {
        if (pivot_[col] != col)
            std::swap(b[col], b[pivot_[col]]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = lu_.at(r, col);
            if (factor == 0.0)
                continue;
            b[r] -= factor * b[col];
        }
    }

    // Back substitution.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c)
            acc -= lu_.at(i, c) * x[c];
        x[i] = acc / lu_.at(i, i);
    }
    return x;
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
