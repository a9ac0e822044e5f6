/**
 * @file
 * Small dense linear solvers over caller-owned row-major arrays.
 *
 * Sized for the library's needs: the polynomial trend's normal
 * equations (3x3, one factorisation replayed per function by the
 * batched forecaster), ARIMA's two least-squares fits (at most
 * p + q + 4 unknowns) and the harmonic fit's positive definite Gram
 * systems (two unknowns per harmonic).
 */

#ifndef ICEB_MATH_MATRIX_HH
#define ICEB_MATH_MATRIX_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace iceb::math
{

/**
 * Allocation-free Gaussian elimination over a caller-built augmented
 * system: @p aug holds n rows of (n + 1) columns row-major, the last
 * column being the right-hand side. @p aug is destroyed; the solution
 * is written to @p x (resized to n, no allocation once capacity
 * exists). Partial pivoting; a pivot below 1e-12 marks the system
 * singular, which sets @p singular and zeroes @p x (or panics when
 * @p singular is null).
 */
void solveLinearSystemInPlace(std::vector<double> &aug, std::size_t n,
                              std::vector<double> &x,
                              bool *singular = nullptr);

/** Cholesky pivots must exceed this (solveSpdInPlace). */
inline constexpr double kSpdMinPivot = 1e-12;

/**
 * Solve the symmetric positive definite system A x = b in place by
 * Cholesky factorisation (A = L L^T). @p a holds n x n values
 * row-major; only its lower triangle is read, and it is overwritten
 * with L. @p b is overwritten with x. Returns false, with @p a and
 * @p b clobbered, when a pivot is not above kSpdMinPivot (1e-12) --
 * the tolerance solveLinearSystemInPlace applies to its pivots --
 * i.e. when A is numerically singular or not positive definite.
 */
bool solveSpdInPlace(double *a, std::size_t n, double *b);

/**
 * Record/replay Gaussian elimination for solving one matrix against
 * many right-hand sides.
 *
 * factor() runs the pivoting and elimination sequence of
 * solveLinearSystemInPlace on the matrix alone, recording the pivot
 * row chosen at each column and every elimination factor in execution
 * order. solve() replays that recording against a right-hand side:
 * the same row swaps at the same steps, the same factor values in the
 * same subtraction order, the same back-substitution over the
 * recorded upper triangle. Pivot selection in the augmented algorithm
 * depends only on matrix columns, so a replayed solve performs the
 * exact floating-point operation sequence that
 * solveLinearSystemInPlace would on the corresponding augmented
 * system - solutions are bit-identical (enforced by test).
 *
 * This is what lets the batched forecaster factor one shared
 * polyfit normal matrix per (window, degree) group and then solve
 * thousands of per-function right-hand sides cheaply.
 */
class FactoredSystem
{
  public:
    /** Factor the n x n row-major matrix @p a (copied). */
    void factor(const double *a, std::size_t n);

    /** System size (0 until factor() is called). */
    std::size_t size() const { return n_; }

    /** True when the matrix was numerically singular. */
    bool singular() const { return singular_; }

    /**
     * Solve A x = b by replaying the recorded elimination. @p b and
     * @p x are n values; b == x is allowed. A singular system writes
     * all zeros (matching solveLinearSystemInPlace's singular path).
     */
    void solve(const double *b, double *x) const;

  private:
    std::size_t n_ = 0;
    bool singular_ = false;
    std::vector<std::uint32_t> pivot_; //!< pivot row per column
    std::vector<double> factors_;      //!< elimination tape, exec order
    std::vector<double> upper_;        //!< post-elimination matrix rows
};

} // namespace iceb::math

#endif // ICEB_MATH_MATRIX_HH
