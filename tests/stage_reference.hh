/**
 * @file
 * The FIP composed from math's scalar stages: the bitwise reference
 * the forecast tests hold the pool's kernels (and FftPredictor, a
 * one-function pool) to.
 *
 * The window is an erase-from-front vector, and a forecast runs
 * polyfitSeries, detrendInto, FftPlan::forwardReal, the bin
 * magnitudes, decomposeFromMagnitudes and the trend-plus-harmonics
 * evaluation, clamped at 0; an empty or all-zero window forecasts
 * zeros and a window below min_samples its mean. None of it is kernel
 * code, so a kernel that drifts by one ulp fails against it. It
 * shares math's stages with the kernels, though (refinedPeaks,
 * harmonicsFromFit, decompose); seed_predictor.hh is the reference
 * that shares none, at a tolerance.
 */

#ifndef ICEB_TESTS_STAGE_REFERENCE_HH
#define ICEB_TESTS_STAGE_REFERENCE_HH

#include <cstddef>
#include <vector>

#include "predictors/forecast_pool.hh"

namespace stage
{

/** One function's FIP, stage by stage. */
class Reference
{
  public:
    explicit Reference(iceb::predictors::FftPredictorConfig config);

    /** Append max(0, @p concurrency), dropping the oldest when full. */
    void observe(double concurrency);

    /** The next @p horizon forecasts into @p out. */
    void forecastHorizon(std::size_t horizon,
                         std::vector<double> &out) const;

  private:
    iceb::predictors::FftPredictorConfig config_;
    std::vector<double> window_;
};

} // namespace stage

#endif // ICEB_TESTS_STAGE_REFERENCE_HH
