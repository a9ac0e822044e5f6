#include "predictors/fft_predictor.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "math/stats.hh"

namespace iceb::predictors
{

FftPredictor::FftPredictor(FftPredictorConfig config)
    : config_(config)
{
    ICEB_ASSERT(config_.window >= 4, "FIP window too small");
    ICEB_ASSERT(config_.harmonics >= 1, "FIP needs >= 1 harmonic");
    ICEB_ASSERT(config_.resync_every >= 1, "FIP resync cadence too small");
    ring_.resize(config_.window, 0.0);
    if (config_.incremental_spectrum)
        sdft_ = math::SlidingDft(config_.window);
}

void
FftPredictor::observe(double concurrency)
{
    const double value = std::max(0.0, concurrency);
    if (size_ < config_.window) {
        // Filling up: entries 0..size_-1 are already in arrival order.
        ring_[size_++] = value;
        return;
    }
    const double oldest = ring_[head_];
    ring_[head_] = value;
    head_ = head_ + 1 == config_.window ? 0 : head_ + 1;
    if (config_.incremental_spectrum && sdft_.valid()) {
        sdft_.slide(oldest, value);
        if (++since_resync_ >= config_.resync_every) {
            // Bound sliding-DFT drift: force a full-FFT resync at the
            // next forecast.
            sdft_.invalidate();
        }
    }
}

double
FftPredictor::predictNext()
{
    forecastHorizon(1, next_scratch_);
    return next_scratch_.front();
}

std::vector<double>
FftPredictor::forecastHorizon(std::size_t horizon)
{
    std::vector<double> out;
    forecastHorizon(horizon, out);
    return out;
}

void
FftPredictor::forecastHorizon(std::size_t horizon, std::vector<double> &out)
{
    ICEB_ASSERT(horizon >= 1, "horizon must be positive");
    out.assign(horizon, 0.0);
    if (size_ == 0)
        return;
    // Fast path: a silent window forecasts silence (this is the
    // common case for infrequent functions and keeps per-interval
    // overhead low across large traces).
    bool all_zero = true;
    for (std::size_t i = 0; i < size_; ++i) {
        if (ring_[i] != 0.0) {
            all_zero = false;
            break;
        }
    }
    if (all_zero)
        return;
    linearizeWindow();
    if (size_ < config_.min_samples) {
        std::fill(out.begin(), out.end(),
                  std::max(0.0, math::mean(window_scratch_)));
        return;
    }

    // Trend + top-n harmonics of the detrended residual, extrapolated
    // past the window (t = window length onward).
    const std::size_t n = size_;
    math::polyfitSeries(window_scratch_.data(), n, config_.poly_degree,
                        trend_, poly_ws_);
    math::detrendInto(window_scratch_.data(), n, trend_, residual_);

    const bool incremental = config_.incremental_spectrum &&
        n == config_.window && n >= 8 && config_.harmonics >= 1;
    if (incremental) {
        if (!sdft_.valid()) {
            sdft_.resync(window_scratch_.data(), n, harm_ws_.fft);
            since_resync_ = 0;
        }
        incrementalMagnitudes();
        math::decomposeFromMagnitudes(residual_.data(), n,
                                      config_.harmonics, harmonics_,
                                      harm_ws_);
    } else {
        math::decomposeForExtrapolation(residual_.data(), n,
                                        config_.harmonics, harmonics_,
                                        harm_ws_);
    }

    for (std::size_t step = 0; step < horizon; ++step) {
        const double t = static_cast<double>(n + step);
        const double forecast = trend_.evaluate(t) +
            math::evaluateHarmonics(harmonics_, t);
        out[step] = std::max(0.0, forecast);
    }
}

void
FftPredictor::linearizeWindow()
{
    window_scratch_.resize(size_);
    if (size_ < config_.window || head_ == 0) {
        std::copy(ring_.begin(), ring_.begin() + size_,
                  window_scratch_.begin());
        return;
    }
    const std::size_t tail = config_.window - head_;
    std::copy(ring_.begin() + head_, ring_.end(),
              window_scratch_.begin());
    std::copy(ring_.begin(), ring_.begin() + head_,
              window_scratch_.begin() + tail);
}

void
FftPredictor::incrementalMagnitudes()
{
    const std::size_t n = config_.window;
    const std::size_t half = n / 2;

    if (trend_basis_.empty()) {
        // DFTs of the monomials t^p, computed once: by linearity the
        // residual spectrum is FFT(window) - sum_p c_p * FFT(t^p).
        trend_basis_.resize(config_.poly_degree + 1);
        std::vector<double> monomial(n);
        std::vector<math::Complex> spectrum(n);
        for (std::size_t p = 0; p <= config_.poly_degree; ++p) {
            for (std::size_t t = 0; t < n; ++t)
                monomial[t] = std::pow(static_cast<double>(t),
                                       static_cast<double>(p));
            const auto plan = math::fftPlanFor(n);
            plan->forwardReal(monomial.data(), spectrum.data(),
                              harm_ws_.fft);
            trend_basis_[p].assign(spectrum.begin(),
                                   spectrum.begin() + half + 1);
        }
    }

    const std::vector<math::Complex> &bins = sdft_.bins();
    harm_ws_.magnitude.assign(half + 1, 0.0);
    for (std::size_t k = 1; k <= half; ++k) {
        math::Complex residual_bin = bins[k];
        for (std::size_t p = 0; p <= config_.poly_degree; ++p)
            residual_bin -= trend_.coeff(p) * trend_basis_[p][k];
        harm_ws_.magnitude[k] = std::abs(residual_bin);
    }
}

void
FftPredictor::reset()
{
    head_ = 0;
    size_ = 0;
    sdft_.invalidate();
    since_resync_ = 0;
}

} // namespace iceb::predictors
