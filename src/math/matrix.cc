#include "math/matrix.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace iceb::math
{

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0)
{
    ICEB_ASSERT(rows > 0 && cols > 0, "matrix dimensions must be positive");
}

Matrix
Matrix::fromRows(const std::vector<std::vector<double>> &rows)
{
    ICEB_ASSERT(!rows.empty() && !rows.front().empty(),
                "fromRows needs at least one element");
    Matrix m(rows.size(), rows.front().size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        ICEB_ASSERT(rows[r].size() == m.cols_, "ragged matrix rows");
        for (std::size_t c = 0; c < m.cols_; ++c)
            m.at(r, c) = rows[r][c];
    }
    return m;
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
    ICEB_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

double
Matrix::at(std::size_t r, std::size_t c) const
{
    ICEB_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

Matrix
Matrix::multiply(const Matrix &rhs) const
{
    ICEB_ASSERT(cols_ == rhs.rows_, "matrix product shape mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t k = 0; k < cols_; ++k) {
            const double lhs_val = at(r, k);
            if (lhs_val == 0.0)
                continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c)
                out.at(r, c) += lhs_val * rhs.at(k, c);
        }
    }
    return out;
}

std::vector<double>
Matrix::multiply(const std::vector<double> &vec) const
{
    ICEB_ASSERT(cols_ == vec.size(), "matrix-vector shape mismatch");
    std::vector<double> out(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out[r] += at(r, c) * vec[c];
    return out;
}

Matrix
Matrix::transposed() const
{
    Matrix out(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out.at(c, r) = at(r, c);
    return out;
}

void
solveLinearSystemInPlace(std::vector<double> &aug, std::size_t n,
                         std::vector<double> &x, bool *singular)
{
    const std::size_t stride = n + 1;
    ICEB_ASSERT(aug.size() == n * stride, "augmented system shape mismatch");
    if (singular)
        *singular = false;
    double *work = aug.data();

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting: largest absolute value in this column.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(work[r * stride + col]) >
                std::fabs(work[pivot * stride + col]))
                pivot = r;
        if (std::fabs(work[pivot * stride + col]) < 1e-12) {
            if (singular) {
                *singular = true;
                x.assign(n, 0.0);
                return;
            }
            panic("singular system in solveLinearSystem");
        }
        if (pivot != col) {
            std::swap_ranges(work + col * stride,
                             work + (col + 1) * stride,
                             work + pivot * stride);
        }

        const double *prow = work + col * stride;
        for (std::size_t r = col + 1; r < n; ++r) {
            double *row = work + r * stride;
            const double factor = row[col] / prow[col];
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c <= n; ++c)
                row[c] -= factor * prow[c];
        }
    }

    x.assign(n, 0.0);
    for (std::size_t r = n; r-- > 0;) {
        const double *row = work + r * stride;
        double acc = row[n];
        for (std::size_t c = r + 1; c < n; ++c)
            acc -= row[c] * x[c];
        x[r] = acc / row[r];
    }
}

std::vector<double>
solveLinearSystem(const Matrix &a, const std::vector<double> &b,
                  bool *singular)
{
    ICEB_ASSERT(a.rows() == a.cols(), "solve needs a square system");
    ICEB_ASSERT(a.rows() == b.size(), "rhs size mismatch");
    const std::size_t n = a.rows();

    std::vector<double> aug(n * (n + 1));
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            aug[r * (n + 1) + c] = a.at(r, c);
        aug[r * (n + 1) + n] = b[r];
    }
    std::vector<double> x;
    solveLinearSystemInPlace(aug, n, x, singular);
    return x;
}

bool
solveSpdInPlace(double *a, std::size_t n, double *b)
{
    // Cholesky-Banachiewicz, row by row: L[j][j] from the row's own
    // entries, then column j of every later row.
    for (std::size_t j = 0; j < n; ++j) {
        double *row_j = a + j * n;
        double pivot = row_j[j];
        for (std::size_t k = 0; k < j; ++k)
            pivot -= row_j[k] * row_j[k];
        if (!(pivot > 1e-12))
            return false;
        const double diag = std::sqrt(pivot);
        row_j[j] = diag;
        for (std::size_t i = j + 1; i < n; ++i) {
            double *row_i = a + i * n;
            double acc = row_i[j];
            for (std::size_t k = 0; k < j; ++k)
                acc -= row_i[k] * row_j[k];
            row_i[j] = acc / diag;
        }
    }

    // Forward substitution L z = b, then back substitution L^T x = z.
    for (std::size_t i = 0; i < n; ++i) {
        const double *row_i = a + i * n;
        double acc = b[i];
        for (std::size_t k = 0; k < i; ++k)
            acc -= row_i[k] * b[k];
        b[i] = acc / row_i[i];
    }
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t k = i + 1; k < n; ++k)
            acc -= a[k * n + i] * b[k];
        b[i] = acc / a[i * n + i];
    }
    return true;
}

void
FactoredSystem::factor(const double *a, std::size_t n)
{
    ICEB_ASSERT(n >= 1, "FactoredSystem needs a positive size");
    n_ = n;
    singular_ = false;
    upper_.assign(a, a + n * n);
    pivot_.assign(n, 0);
    factors_.clear();
    factors_.reserve(n * (n - 1) / 2);
    double *work = upper_.data();

    // Same pivot selection, tolerance and elimination order as
    // solveLinearSystemInPlace, restricted to the matrix columns (the
    // rhs column of the augmented algorithm is what solve() replays).
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(work[r * n + col]) >
                std::fabs(work[pivot * n + col]))
                pivot = r;
        if (std::fabs(work[pivot * n + col]) < 1e-12) {
            singular_ = true;
            return;
        }
        pivot_[col] = static_cast<std::uint32_t>(pivot);
        if (pivot != col) {
            std::swap_ranges(work + col * n, work + (col + 1) * n,
                             work + pivot * n);
        }

        const double *prow = work + col * n;
        for (std::size_t r = col + 1; r < n; ++r) {
            double *row = work + r * n;
            const double factor = row[col] / prow[col];
            factors_.push_back(factor);
            if (factor == 0.0)
                continue;
            for (std::size_t c = col; c < n; ++c)
                row[c] -= factor * prow[c];
        }
    }
}

void
FactoredSystem::solve(const double *b, double *x) const
{
    const std::size_t n = n_;
    ICEB_ASSERT(n >= 1, "FactoredSystem::solve before factor");
    if (singular_) {
        for (std::size_t i = 0; i < n; ++i)
            x[i] = 0.0;
        return;
    }
    if (x != b) {
        for (std::size_t i = 0; i < n; ++i)
            x[i] = b[i];
    }

    // Replay the recorded swaps and factor subtractions in the exact
    // order the augmented elimination applied them to its rhs column.
    const double *tape = factors_.data();
    for (std::size_t col = 0; col < n; ++col) {
        const std::size_t pivot = pivot_[col];
        if (pivot != col)
            std::swap(x[col], x[pivot]);
        for (std::size_t r = col + 1; r < n; ++r) {
            const double factor = *tape++;
            if (factor == 0.0)
                continue;
            x[r] -= factor * x[col];
        }
    }

    const double *work = upper_.data();
    for (std::size_t r = n; r-- > 0;) {
        const double *row = work + r * n;
        double acc = x[r];
        for (std::size_t c = r + 1; c < n; ++c)
            acc -= row[c] * x[c];
        x[r] = acc / row[r];
    }
}

double
dot(const std::vector<double> &a, const std::vector<double> &b)
{
    ICEB_ASSERT(a.size() == b.size(), "dot product size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

} // namespace iceb::math
