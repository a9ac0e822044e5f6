/**
 * @file
 * The FIP forecaster as the project's seed implemented it, frozen as
 * an independent reference for FftPredictorTest.MatchesSeedPredictor.
 *
 * The pipeline: an erase-from-front window; a quadratic trend from
 * row-major normal equations solved by the reference's own Gaussian
 * elimination with partial pivoting; the detrended window's spectrum;
 * peak picking with log-parabola refinement; and a least-squares
 * refit at the refined frequencies over a design matrix summed term
 * by term. The spectrum is math::fft of the window widened to complex
 * values. The seed's own FFT (bitReverse, fftPow2Impl, bluestein,
 * fft) was that function's forward path verbatim, and FftLengthTest
 * and FftPlanTest pin it.
 *
 * The reference calls none of the code the test checks: not FftPlan,
 * polyfitSeries, solveLinearSystemInPlace, FactoredSystem,
 * refinedPeaks or the closed-form harmonic fit. Do not "fix" or
 * modernise it; its value is that it does not share their code.
 */

#ifndef ICEB_TESTS_SEED_PREDICTOR_HH
#define ICEB_TESTS_SEED_PREDICTOR_HH

#include <cstddef>
#include <vector>

#include "predictors/forecast_pool.hh"

namespace seed
{

/** The seed predictor: fresh allocations on every forecast. */
class Predictor
{
  public:
    explicit Predictor(iceb::predictors::FftPredictorConfig config);

    void observe(double concurrency);

    std::vector<double> forecastHorizon(std::size_t horizon) const;

  private:
    iceb::predictors::FftPredictorConfig config_;
    std::vector<double> window_;
};

} // namespace seed

#endif // ICEB_TESTS_SEED_PREDICTOR_HH
