#include "predictors/arima.hh"

#include <algorithm>

#include "common/logging.hh"
#include "math/matrix.hh"
#include "math/stats.hh"

namespace iceb::predictors
{

namespace
{

/**
 * Ordinary least squares: regress w[t] on regressor(t, 0..k) for t in
 * [first, w.size()). The normal equations are accumulated straight
 * into @p aug as the k x (k + 1) augmented system [X^T X | X^T y] and
 * solved into @p coeffs. Returns false when they are singular.
 */
template <typename Regressor>
bool
leastSquares(const std::vector<double> &w, std::size_t first,
             std::size_t k, Regressor regressor, std::vector<double> &aug,
             std::vector<double> &coeffs)
{
    const std::size_t stride = k + 1;
    aug.assign(k * stride, 0.0);
    for (std::size_t t = first; t < w.size(); ++t) {
        for (std::size_t a = 0; a < k; ++a) {
            const double ra = regressor(t, a);
            double *row = aug.data() + a * stride;
            row[k] += ra * w[t];
            for (std::size_t b = 0; b < k; ++b)
                row[b] += ra * regressor(t, b);
        }
    }
    // Proportional ridge regularisation: lagged-regressor columns of
    // periodic series are near-collinear, and an unregularised fit
    // produces wild coefficients.
    for (std::size_t a = 0; a < k; ++a) {
        double &diag = aug[a * stride + a];
        diag += 1e-3 * diag + 1e-8;
    }
    bool singular = false;
    math::solveLinearSystemInPlace(aug, k, coeffs, &singular);
    return !singular;
}

} // namespace

ArimaPredictor::ArimaPredictor(ArimaConfig config)
    : config_(config)
{
    ICEB_ASSERT(config_.p >= 1, "ARIMA needs p >= 1");
    ICEB_ASSERT(config_.window > config_.p + config_.q + 6,
                "ARIMA window too small for its order");
}

void
ArimaPredictor::observe(double concurrency)
{
    if (history_.size() == config_.window)
        history_.erase(history_.begin());
    history_.push_back(std::max(0.0, concurrency));
    ++since_refit_;
    if (since_refit_ >= config_.refit_every) {
        refit();
        since_refit_ = 0;
    }
}

void
ArimaPredictor::refit()
{
    fitted_ = false;
    diff_.clear();
    for (std::size_t i = 1; i < history_.size(); ++i)
        diff_.push_back(history_[i] - history_[i - 1]);
    const std::vector<double> &w = diff_;
    const std::size_t p = config_.p;
    const std::size_t q = config_.q;
    if (w.size() < std::max(p, q) + p + q + 5)
        return;

    // Stage 1: long autoregression to estimate innovations.
    const std::size_t long_order = std::min(p + q + 3, w.size() / 3);
    const auto long_row = [&w](std::size_t t, std::size_t a) {
        return a == 0 ? 1.0 : w[t - a];
    };
    if (!leastSquares(w, long_order, long_order + 1, long_row, aug_,
                      coeffs_))
        return;

    innovations_.assign(w.size(), 0.0);
    for (std::size_t t = long_order; t < w.size(); ++t) {
        double fit = coeffs_[0];
        for (std::size_t lag = 1; lag <= long_order; ++lag)
            fit += coeffs_[lag] * w[t - lag];
        innovations_[t] = w[t] - fit;
    }

    // Stage 2: regress on p AR lags and q lagged innovations.
    const std::vector<double> &e = innovations_;
    const auto row = [&w, &e, p](std::size_t t, std::size_t a) {
        if (a == 0)
            return 1.0;
        return a <= p ? w[t - a] : e[t - (a - p)];
    };
    if (!leastSquares(w, std::max(p, q) + long_order, 1 + p + q, row, aug_,
                      coeffs_))
        return;

    // Keep the MA part invertible; a recursive residual filter with
    // |theta| >= 1 diverges.
    for (std::size_t j = 1 + p; j < coeffs_.size(); ++j)
        coeffs_[j] = std::clamp(coeffs_[j], -0.95, 0.95);
    // Standard Hannan-Rissanen: predictNext reads the stage-1
    // innovations as the estimated shocks.
    fitted_ = true;
}

double
ArimaPredictor::predictNext()
{
    if (history_.empty())
        return 0.0;
    if (!fitted_)
        return std::max(0.0, math::mean(history_));

    // A fit saw more than p + q differences and the history never
    // shrinks, so both lag loops below stay in range.
    const std::size_t n = history_.size();
    const std::size_t p = config_.p;
    double w_hat = coeffs_[0];
    for (std::size_t lag = 1; lag <= p; ++lag)
        w_hat += coeffs_[lag] * (history_[n - lag] - history_[n - lag - 1]);
    for (std::size_t lag = 1; lag <= config_.q; ++lag) {
        w_hat += coeffs_[p + lag] *
            innovations_[innovations_.size() - lag];
    }

    // Undifference, then clamp: an unstable fit (e.g. right after a
    // regime change) can produce runaway forecasts, so bound them by a
    // multiple of the observed range, as any deployed controller would.
    const double forecast = w_hat + history_.back();
    const double ceiling =
        2.0 * *std::max_element(history_.begin(), history_.end()) + 1.0;
    return std::clamp(forecast, 0.0, ceiling);
}

void
ArimaPredictor::reset()
{
    history_.clear();
    fitted_ = false;
    since_refit_ = 0;
}

} // namespace iceb::predictors
