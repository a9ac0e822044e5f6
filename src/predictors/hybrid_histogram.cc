#include "predictors/hybrid_histogram.hh"

#include <algorithm>
#include <cmath>

namespace iceb::predictors
{

HybridHistogram::HybridHistogram()
    : bins_(kMaxIdleMinutes + 1, 0),
      arima_(ArimaConfig{.p = 2, .q = 1, .window = 64, .refit_every = 1})
{
}

void
HybridHistogram::observeArrival(IntervalIndex interval)
{
    if (last_arrival_) {
        const IntervalIndex gap = interval - *last_arrival_;
        if (gap >= 1) {
            ++total_samples_;
            if (static_cast<std::size_t>(gap) <= kMaxIdleMinutes) {
                ++bins_[static_cast<std::size_t>(gap)];
            } else {
                ++oob_samples_;
            }
            arima_.observe(static_cast<double>(gap));
        }
    }
    last_arrival_ = interval;
}

bool
HybridHistogram::representative() const
{
    // Out-of-bounds tolerance and coefficient-of-variation gate.
    constexpr double kMaxOobFraction = 0.5;
    constexpr double kMaxCv = 2.0;
    if (total_samples_ < kMinSamples)
        return false;
    const double oob = static_cast<double>(oob_samples_) /
        static_cast<double>(total_samples_);
    if (oob > kMaxOobFraction)
        return false;
    const double mu = histogramMean();
    if (mu <= 0.0)
        return false;
    return histogramStddev() / mu <= kMaxCv;
}

double
HybridHistogram::histogramMean() const
{
    const std::size_t in_bounds = total_samples_ - oob_samples_;
    if (in_bounds == 0)
        return 0.0;
    double acc = 0.0;
    for (std::size_t m = 0; m < bins_.size(); ++m)
        acc += static_cast<double>(m) * bins_[m];
    return acc / static_cast<double>(in_bounds);
}

double
HybridHistogram::histogramStddev() const
{
    const std::size_t in_bounds = total_samples_ - oob_samples_;
    if (in_bounds < 2)
        return 0.0;
    const double mu = histogramMean();
    double acc = 0.0;
    for (std::size_t m = 0; m < bins_.size(); ++m) {
        const double diff = static_cast<double>(m) - mu;
        acc += diff * diff * bins_[m];
    }
    return std::sqrt(acc / static_cast<double>(in_bounds));
}

double
HybridHistogram::quantileMinutes(double q) const
{
    const std::size_t in_bounds = total_samples_ - oob_samples_;
    if (in_bounds == 0)
        return 0.0;
    const double target = q * static_cast<double>(in_bounds);
    double cumulative = 0.0;
    for (std::size_t m = 0; m < bins_.size(); ++m) {
        cumulative += bins_[m];
        if (cumulative >= target)
            return static_cast<double>(m);
    }
    return static_cast<double>(kMaxIdleMinutes);
}

IdleWindowForecast
HybridHistogram::forecast()
{
    // Pre-warm margin and keep-alive bound.
    constexpr double kHeadQuantile = 0.05;
    constexpr double kTailQuantile = 0.99;
    static_assert(kHeadQuantile < kTailQuantile,
                  "head quantile must precede tail quantile");
    IdleWindowForecast out;
    if (representative()) {
        const double head = quantileMinutes(kHeadQuantile);
        const double tail =
            std::max(quantileMinutes(kTailQuantile), head + 1.0);
        // A window wider than the standard keep-alive would cost more
        // than it saves; treat it as non-representative.
        if (tail - head <= 20.0) {
            out.usable = true;
            out.head_minutes = head;
            out.tail_minutes = tail;
            return out;
        }
        return out;
    }
    // ARIMA fallback: centre a window on the predicted next idle.
    if (total_samples_ >= 4) {
        const double predicted = arima_.predictNext();
        if (predicted > 0.0 &&
            predicted <= 2.0 * static_cast<double>(kMaxIdleMinutes)) {
            out.usable = true;
            out.head_minutes = std::max(0.0, 0.85 * predicted);
            out.tail_minutes = 1.3 * predicted + 1.0;
            return out;
        }
    }
    return out; // not usable: caller applies the standard keep-alive
}

} // namespace iceb::predictors
