/**
 * @file
 * Least-squares polynomial fitting and detrending.
 *
 * IceBreaker's FIP fits a second-order polynomial a*t^2 + b*t + c to
 * the invocation-concurrency window to capture the overall trend,
 * subtracts it, and hands the residual to the FFT (Sec. 3.1 of the
 * paper).
 */

#ifndef ICEB_MATH_POLYFIT_HH
#define ICEB_MATH_POLYFIT_HH

#include <cstddef>
#include <vector>

namespace iceb::math
{

/**
 * Polynomial with coefficients stored lowest-order first:
 * coeffs[0] + coeffs[1]*t + coeffs[2]*t^2 + ...
 */
class Polynomial
{
  public:
    /** Zero polynomial of the given degree. */
    explicit Polynomial(std::size_t degree = 0);

    /** Construct from coefficients (lowest order first). */
    explicit Polynomial(std::vector<double> coeffs);

    /** Polynomial degree (number of coefficients minus one). */
    std::size_t degree() const { return coeffs_.size() - 1; }

    /** Coefficient of t^power (0 when beyond the stored degree). */
    double coeff(std::size_t power) const;

    /**
     * Replace the coefficients (lowest order first) in place. Does
     * not allocate once the internal capacity covers @p count, which
     * is what lets fit workspaces reuse one Polynomial per window.
     */
    void assign(const double *coeffs, std::size_t count);

    /** Evaluate at t via Horner's rule. */
    double evaluate(double t) const;

  private:
    std::vector<double> coeffs_;
};

/**
 * Reusable scratch for polyfitSeries: normal-equation power sums and
 * the augmented solver system. Buffers grow on first use and are
 * reused afterwards, so steady-state fits allocate nothing.
 */
struct PolyfitWorkspace
{
    std::vector<double> powers; //!< sum_i x_i^k, k <= 2*degree
    std::vector<double> aty;    //!< sum_i x_i^k * y_i, k <= degree
    std::vector<double> aug;    //!< augmented normal equations
    std::vector<double> coeffs; //!< solver output
};

/**
 * Fit a least-squares polynomial of the given degree over implicit
 * x = 0, 1, ..., y.size()-1; the form the FIP uses on its local
 * window. Uses the normal equations solved by Gaussian elimination;
 * adequate for the low degrees (<= 3) used here.
 *
 * If the system is singular (fewer samples than coefficients) the fit
 * degrades gracefully to the mean of y.
 */
Polynomial polyfitSeries(const std::vector<double> &y, std::size_t degree);

/**
 * Allocation-free polyfitSeries: fits y[0..n) over implicit
 * x = 0..n-1 into @p out, using @p ws for every intermediate. The
 * arithmetic (and therefore the result) is bit-identical to the
 * vector overload, which delegates here.
 */
void polyfitSeries(const double *y, std::size_t n, std::size_t degree,
                   Polynomial &out, PolyfitWorkspace &ws);

/**
 * Shared per-(n, degree) tables for fitting many equal-length series
 * at once: the Vandermonde powers i^k for every sample index (the
 * exact doubles polyfitSeries' xk *= xi recurrence produces, stored
 * so batched fits can reuse them per function), and the power sums
 * sum_i i^k that form the normal matrix - which is identical for
 * every series of the same length, so the batched forecaster factors
 * it once (FactoredSystem) and replays the solve per function.
 */
struct SeriesPowerTable
{
    std::size_t n = 0;
    std::size_t degree = 0;
    /** i^k for k <= degree, row-major: xpow[i * (degree+1) + k]. */
    std::vector<double> xpow;
    /** sum_i i^k for k <= 2*degree (normal-matrix entries). */
    std::vector<double> powers;
};

/**
 * Build the shared tables for series of length @p n. Uses the same
 * multiplication chain and accumulation order as polyfitSeries, so a
 * fit assembled from these tables is bit-identical to a direct one.
 */
void buildSeriesPowerTable(std::size_t n, std::size_t degree,
                           SeriesPowerTable &out);

/** Subtract a polynomial trend evaluated at x = 0..n-1 from y. */
std::vector<double> detrend(const std::vector<double> &y,
                            const Polynomial &trend);

/** detrend into a reused output buffer (no allocation once sized). */
void detrendInto(const double *y, std::size_t n, const Polynomial &trend,
                 std::vector<double> &out);

} // namespace iceb::math

#endif // ICEB_MATH_POLYFIT_HH
