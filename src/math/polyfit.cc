#include "math/polyfit.hh"

#include "common/logging.hh"
#include "math/matrix.hh"

namespace iceb::math
{

Polynomial::Polynomial(std::size_t degree)
    : coeffs_(degree + 1, 0.0)
{
}

Polynomial::Polynomial(std::vector<double> coeffs)
    : coeffs_(std::move(coeffs))
{
    ICEB_ASSERT(!coeffs_.empty(), "polynomial needs a coefficient");
}

double
Polynomial::coeff(std::size_t power) const
{
    return power < coeffs_.size() ? coeffs_[power] : 0.0;
}

void
Polynomial::assign(const double *coeffs, std::size_t count)
{
    ICEB_ASSERT(count >= 1, "polynomial needs a coefficient");
    coeffs_.assign(coeffs, coeffs + count);
}

double
Polynomial::evaluate(double t) const
{
    double acc = 0.0;
    for (std::size_t i = coeffs_.size(); i-- > 0;)
        acc = acc * t + coeffs_[i];
    return acc;
}

Polynomial
polyfitSeries(const std::vector<double> &y, std::size_t degree)
{
    Polynomial out;
    PolyfitWorkspace ws;
    polyfitSeries(y.data(), y.size(), degree, out, ws);
    return out;
}

void
polyfitSeries(const double *y, std::size_t n, std::size_t degree,
              Polynomial &out, PolyfitWorkspace &ws)
{
    ICEB_ASSERT(n >= 1, "polyfit of empty data");
    const std::size_t terms = degree + 1;

    // Normal equations (V^T V) c = V^T y with Vandermonde V over the
    // sample points x_i = i: only the power sums sum_i x_i^k
    // (k <= 2*degree) and sum_i x_i^k * y_i (k <= degree) are needed.
    ws.powers.assign(2 * degree + 1, 0.0);
    ws.aty.assign(terms, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        const double xi = static_cast<double>(i);
        double xk = 1.0;
        for (std::size_t k = 0; k < ws.powers.size(); ++k) {
            ws.powers[k] += xk;
            if (k < terms)
                ws.aty[k] += xk * y[i];
            xk *= xi;
        }
    }
    ws.aug.assign(terms * (terms + 1), 0.0);
    for (std::size_t r = 0; r < terms; ++r) {
        for (std::size_t c = 0; c < terms; ++c)
            ws.aug[r * (terms + 1) + c] = ws.powers[r + c];
        ws.aug[r * (terms + 1) + terms] = ws.aty[r];
    }

    bool singular = false;
    solveLinearSystemInPlace(ws.aug, terms, ws.coeffs, &singular);
    if (singular) {
        // Degenerate sample (e.g. a single point): fall back to the
        // mean level.
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            sum += y[i];
        ws.coeffs.assign(terms, 0.0);
        ws.coeffs[0] = sum / static_cast<double>(n);
    }
    out.assign(ws.coeffs.data(), terms);
}

void
buildSeriesPowerTable(std::size_t n, std::size_t degree,
                      SeriesPowerTable &out)
{
    ICEB_ASSERT(n >= 1, "power table of empty series");
    const std::size_t terms = degree + 1;
    out.n = n;
    out.degree = degree;
    out.xpow.assign(n * terms, 0.0);
    out.powers.assign(2 * degree + 1, 0.0);
    // The same xk *= xi chain as polyfitSeries, so the stored powers
    // (and the sums built from them) are the identical doubles.
    for (std::size_t i = 0; i < n; ++i) {
        const double xi = static_cast<double>(i);
        double xk = 1.0;
        for (std::size_t k = 0; k < out.powers.size(); ++k) {
            out.powers[k] += xk;
            if (k < terms)
                out.xpow[i * terms + k] = xk;
            xk *= xi;
        }
    }
}

std::vector<double>
detrend(const std::vector<double> &y, const Polynomial &trend)
{
    std::vector<double> out;
    detrendInto(y.data(), y.size(), trend, out);
    return out;
}

void
detrendInto(const double *y, std::size_t n, const Polynomial &trend,
            std::vector<double> &out)
{
    out.resize(n);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = y[i] - trend.evaluate(static_cast<double>(i));
}

} // namespace iceb::math
