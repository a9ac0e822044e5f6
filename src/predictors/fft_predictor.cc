#include "predictors/fft_predictor.hh"

#include <algorithm>

#include "common/logging.hh"
#include "math/stats.hh"

namespace iceb::predictors
{

FftPredictor::FftPredictor(FftPredictorConfig config)
    : config_(config)
{
    ICEB_ASSERT(config_.window >= 4, "FIP window too small");
    ICEB_ASSERT(config_.harmonics >= 1, "FIP needs >= 1 harmonic");
    ring_.resize(config_.window, 0.0);
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
    ring_[head_] = value;
    head_ = head_ + 1 == config_.window ? 0 : head_ + 1;
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
    math::decomposeForExtrapolation(residual_.data(), n,
                                    config_.harmonics, harmonics_,
                                    harm_ws_);

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
FftPredictor::reset()
{
    head_ = 0;
    size_ = 0;
}

} // namespace iceb::predictors
