/**
 * @file
 * IceBreaker's Fourier-based function-invocation predictor (FIP).
 *
 * Over a local window (one hour = 60 one-minute intervals by
 * default) the FIP: (1) fits a second-order polynomial trend
 * a*t^2 + b*t + c, (2) detrends the window, (3) takes an FFT of the
 * residual, (4) keeps the top-n harmonics (n = 10), and (5) forecasts
 *
 *   f(t_k + 1) = a(t_k+1)^2 + b(t_k+1) + c
 *              + sum_i A_i * cos(2*pi*f_i*(t_k+1) + theta_i)
 *
 * exactly as Sec. 3.1 of the paper describes.
 *
 * The implementation is built for trace scale (every active function
 * re-forecasts every interval): the window is a ring buffer (O(1)
 * observe), the FFT runs through a cached FftPlan, and all fit
 * intermediates live in per-predictor workspaces, so the steady-state
 * forecast path performs zero heap allocations when callers use the
 * in-place forecastHorizon overload.
 */

#ifndef ICEB_PREDICTORS_FFT_PREDICTOR_HH
#define ICEB_PREDICTORS_FFT_PREDICTOR_HH

#include <vector>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/polyfit.hh"
#include "predictors/predictor.hh"

namespace iceb::predictors
{

/**
 * FIP tuning knobs. The paper uses a one-hour local window and
 * reports < 2% sensitivity for any window below ten hours; the
 * default here is two hours, which resolves periods up to ~an hour
 * (two full cycles in the window).
 */
struct FftPredictorConfig
{
    std::size_t window = 120;       //!< local window (intervals)
    std::size_t harmonics = 10;     //!< top-n components kept
    std::size_t poly_degree = 2;    //!< trend model order
    std::size_t min_samples = 8;    //!< below this, predict the mean

    bool operator==(const FftPredictorConfig &) const = default;
};

/**
 * The FFT-based predictor.
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
     * predictNext(). IceBreaker uses the horizon to set keep-alive
     * durations: a container stays warm until the next interval with
     * predicted activity.
     */
    std::vector<double> forecastHorizon(std::size_t horizon);

    /**
     * Allocation-free forecastHorizon: writes the @p horizon forecasts
     * into @p out (resized, which allocates nothing once its capacity
     * covers the horizon). This is the per-interval hot path.
     */
    void forecastHorizon(std::size_t horizon, std::vector<double> &out);

    /** Samples currently held in the local window. */
    std::size_t sampleCount() const { return size_; }

    const FftPredictorConfig &config() const { return config_; }

  private:
    /** Copy the ring contents, oldest first, into window_scratch_. */
    void linearizeWindow();

    FftPredictorConfig config_;
    std::vector<double> ring_;   //!< circular window storage
    std::size_t head_ = 0;       //!< oldest element when full
    std::size_t size_ = 0;       //!< samples held (<= config_.window)

    std::vector<double> window_scratch_;  //!< linearized window
    std::vector<double> residual_;        //!< detrended window
    math::Polynomial trend_;
    math::PolyfitWorkspace poly_ws_;
    math::HarmonicsWorkspace harm_ws_;
    std::vector<math::Harmonic> harmonics_;
    std::vector<double> next_scratch_;    //!< predictNext() output
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_FFT_PREDICTOR_HH
