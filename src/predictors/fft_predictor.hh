/**
 * @file
 * IceBreaker's FIP for one function, behind the Predictor interface.
 *
 * An FftPredictor is a ForecastPool holding one function and forecasting
 * inline, so it runs the pool's kernels (one-lane blocks) and its
 * forecasts are bit-identical to that function's in any pool. The FIP
 * itself is described in forecast_pool.hh. Steady-state forecasts
 * through the in-place forecastHorizon overload allocate nothing.
 */

#ifndef ICEB_PREDICTORS_FFT_PREDICTOR_HH
#define ICEB_PREDICTORS_FFT_PREDICTOR_HH

#include <vector>

#include "predictors/forecast_pool.hh"
#include "predictors/predictor.hh"

namespace iceb::predictors
{

/**
 * The FFT-based predictor for a single function.
 */
class FftPredictor : public Predictor
{
  public:
    explicit FftPredictor(FftPredictorConfig config = {});

    const char *name() const override { return "fft-fip"; }
    void observe(double concurrency) override;
    double predictNext() override;
    void reset() override;

    /**
     * Forecast the next @p horizon intervals in one shot (one trend +
     * harmonic fit, @p horizon evaluations). Element 0 equals
     * predictNext().
     */
    std::vector<double> forecastHorizon(std::size_t horizon);

    /**
     * Allocation-free forecastHorizon: writes the @p horizon forecasts
     * into @p out (resized, which allocates nothing once its capacity
     * covers the horizon).
     */
    void forecastHorizon(std::size_t horizon, std::vector<double> &out);

  private:
    FftPredictorConfig config_;
    ForecastPool pool_; //!< one function, forecast inline
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_FFT_PREDICTOR_HH
