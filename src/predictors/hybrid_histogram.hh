/**
 * @file
 * Hybrid-histogram inter-arrival predictor ("Serverless in the
 * Wild", Shahrad et al., ATC'20).
 *
 * Keeps a per-function histogram of idle times (minutes between
 * invocations). When the histogram is "representative", the policy
 * pre-warms at the head percentile after the last invocation and
 * keeps the function alive until the tail percentile. Otherwise it
 * falls back to an ARIMA forecast of the next idle time, and when
 * even that is unusable, to a standard fixed keep-alive.
 */

#ifndef ICEB_PREDICTORS_HYBRID_HISTOGRAM_HH
#define ICEB_PREDICTORS_HYBRID_HISTOGRAM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "predictors/arima.hh"

namespace iceb::predictors
{

/** What the hybrid scheme recommends for the next idle period. */
struct IdleWindowForecast
{
    bool usable = false;        //!< false -> use the standard keep-alive
    double head_minutes = 0.0;  //!< start warming this long after idle
    double tail_minutes = 0.0;  //!< stop keeping alive after this long
};

/**
 * Per-function hybrid histogram state. The range and the sample gate
 * follow the ATC'20 paper; the quantiles and the other gates are
 * constants in hybrid_histogram.cc.
 */
class HybridHistogram
{
  public:
    /** Histogram range: idle times up to 4 hours fall in a bin. */
    static constexpr std::size_t kMaxIdleMinutes = 240;

    /** Samples needed before the histogram can be representative. */
    static constexpr std::size_t kMinSamples = 8;

    HybridHistogram();

    /**
     * Record an invocation at the given interval index; idle time is
     * derived from the previous recorded arrival.
     */
    void observeArrival(IntervalIndex interval);

    /** True when the histogram passes the representativeness gates. */
    bool representative() const;

    /** Recommendation for the idle period that starts now. */
    IdleWindowForecast forecast();

    /** Total idle-time samples observed. */
    std::size_t sampleCount() const { return total_samples_; }

    /** Histogram quantile in minutes (linear within the range). */
    double quantileMinutes(double q) const;

  private:
    double histogramMean() const;
    double histogramStddev() const;

    std::vector<std::uint32_t> bins_; //!< bins_[m] = count of m-minute idles
    std::size_t total_samples_ = 0;
    std::size_t oob_samples_ = 0;
    std::optional<IntervalIndex> last_arrival_;
    ArimaPredictor arima_; //!< fallback on idle-time series
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_HYBRID_HISTOGRAM_HH
