/**
 * @file
 * ARIMA(p, 1, q) predictor.
 *
 * This is the invocation-concurrency predictor the paper attributes
 * to "Serverless in the Wild" (enhanced, as the paper did, to predict
 * counts and with tunable lags/moving-average order). It models first
 * differences, the one differencing order any caller uses. Fitting
 * uses the Hannan-Rissanen two-stage procedure: a long autoregression
 * estimates the innovations, then the final AR + MA coefficients come
 * from one least-squares regression.
 */

#ifndef ICEB_PREDICTORS_ARIMA_HH
#define ICEB_PREDICTORS_ARIMA_HH

#include <vector>

#include "predictors/predictor.hh"

namespace iceb::predictors
{

/** ARIMA order and window configuration (differencing order 1). */
struct ArimaConfig
{
    std::size_t p = 3;        //!< autoregressive lags
    std::size_t q = 2;        //!< moving-average order
    std::size_t window = 120; //!< history kept for refitting
    /**
     * Refit cadence in observations. ARIMA fitting is the expensive
     * part, so deployed controllers refit sparingly (hourly here);
     * between refits the stale model keeps forecasting -- which is
     * precisely why it is slow to adapt when the invocation
     * periodicity changes (paper Figs. 4 and 10).
     */
    std::size_t refit_every = 60;
};

/**
 * ARIMA predictor over a sliding window.
 */
class ArimaPredictor : public Predictor
{
  public:
    explicit ArimaPredictor(ArimaConfig config = {});

    const char *name() const override { return "arima"; }
    void observe(double concurrency) override;
    double predictNext() override;
    void reset() override;

  private:
    void refit();

    ArimaConfig config_;
    std::vector<double> history_;
    // Refit scratch, reused so that a warm refit allocates nothing.
    std::vector<double> diff_;        //!< first differences of history_
    std::vector<double> innovations_; //!< stage-1 shocks of the last fit
    std::vector<double> aug_;         //!< augmented normal equations
    std::vector<double> coeffs_; //!< intercept, phi_1..phi_p, theta_1..theta_q
    bool fitted_ = false;
    std::size_t since_refit_ = 0;
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_ARIMA_HH
