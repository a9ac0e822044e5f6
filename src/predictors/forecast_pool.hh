/**
 * @file
 * IceBreaker's Fourier-based function-invocation predictor (FIP),
 * batched over functions in structure-of-arrays form.
 *
 * Over a local window (two hours = 120 one-minute intervals by
 * default) the FIP: (1) fits a second-order polynomial trend
 * a*t^2 + b*t + c, (2) detrends the window, (3) takes an FFT of the
 * residual, (4) keeps the top-n harmonics (n = 10), refined off the
 * bin grid and least-squares fitted, and (5) forecasts
 *
 *   f(t_k + 1) = a(t_k+1)^2 + b(t_k+1) + c
 *              + sum_i A_i * cos(2*pi*f_i*(t_k+1) + theta_i)
 *
 * as Sec. 3.1 of the paper describes.
 *
 * A ForecastPool holds one FftPredictorConfig and the invocation
 * history of every registered function as contiguous per-lane ring
 * buffers; lane i is function i. The lanes advance in lockstep, as
 * the FIP refits every function once per decision interval: all
 * functions are registered first, each interval observes lanes
 * 0..L-1 in order, and forecasts run between intervals. So every lane
 * shares one ring position, one sample count n and one set of kernel
 * tables for n (FftPlan, SeriesPowerTable, factored trend system),
 * rebuilt serially before dispatch while n grows during warm-up.
 *
 * Once n reaches min_samples, forecastAll() fits every lane with a
 * non-zero sample in its window through kernels::forecastBlock, block
 * b holding fitted lanes 8b to 8b+7, optionally thread-parallel on
 * the shared TaskExecutor: blocks go to participants by a fixed
 * interleaving and every lane's arithmetic is lane-local, so results
 * are byte-identical for any --threads value. Silent lanes (observe
 * keeps a per-lane count of non-zero samples) forecast zeros, and
 * below min_samples lanes forecast their window mean. The kernels are
 * the repository's only FIP implementation; FftPredictor is a
 * one-function pool.
 *
 * Equivalence contract (enforced by tests): every forecast equals,
 * bit for bit, math's scalar stages composed over the lane's window,
 * oldest sample first -- polyfitSeries, detrendInto,
 * FftPlan::forwardReal, the bin magnitudes, decomposeFromMagnitudes
 * and the trend-plus-harmonics evaluation, each step clamped at 0 --
 * because each kernel stage replays that operation sequence. The
 * tests hold the pool to this stage reference, not to itself.
 *
 * Steady-state forecasting performs no heap allocations; the pool
 * allocates only when functions are added, on its first forecastAll,
 * while its sample count grows during warm-up, or when a longer
 * horizon or window is first requested (block scratch is per thread,
 * shared by every pool).
 */

#ifndef ICEB_PREDICTORS_FORECAST_POOL_HH
#define ICEB_PREDICTORS_FORECAST_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "predictors/forecast_kernels.hh"

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

/** Pool-wide knobs (the FIP's own ride in FftPredictorConfig). */
struct ForecastPoolOptions
{
    /**
     * Executor participants for forecastAll (1 = inline, 0 = the
     * hardware thread count). A call from inside an executor task
     * runs on its caller plus whichever workers are parked.
     */
    std::size_t threads = 1;
};

/**
 * The batched forecaster. Functions are addressed by the dense id
 * addFunction returns, in registration order.
 */
class ForecastPool
{
  public:
    explicit ForecastPool(ForecastPoolOptions options = {});

    /**
     * Register a function; returns its id. Allowed only before the
     * first observe() or forecastAll(). The first call fixes the
     * pool's config, whose min_samples must be at least 8, the
     * kernels' shortest fit; every later call must pass the same one.
     */
    std::size_t addFunction(const FftPredictorConfig &config);

    /**
     * Append one interval's observation of @p fn, clamped at 0; a full
     * window drops its oldest sample. Each interval observes lanes
     * 0..L-1 in order, once each.
     */
    void observe(std::size_t fn, double concurrency);

    /**
     * Forecast the next @p horizon intervals for every function, only
     * between intervals. Results are read back via forecast().
     */
    void forecastAll(std::size_t horizon);

    /**
     * The @p horizon values of @p fn from the last forecastAll
     * (element 0 is the next interval's prediction).
     */
    const double *forecast(std::size_t fn) const;

  private:
    /** Kernel tables for fitting windows of length n. */
    struct LengthCache
    {
        std::size_t n = 0; //!< 0 until built
        std::shared_ptr<const math::FftPlan> plan;
        math::SeriesPowerTable powers;
        math::FactoredSystem trend_system;
    };

    std::size_t lanes() const { return nonzero_.size(); }
    /** Rebuild cache_ for fits of length count_. */
    void buildLengthCache();
    void runBlock(std::size_t block);

    ForecastPoolOptions options_;
    FftPredictorConfig cfg_;
    /** Lane-major ring storage: ring_[lane * window + pos]. */
    std::vector<double> ring_;
    /** Non-zero samples in each lane's window (0 = silent). */
    std::vector<std::uint32_t> nonzero_;
    /** Every lane's ring position of its oldest sample once full. */
    std::uint32_t head_ = 0;
    /** Samples in every lane's window. */
    std::uint32_t count_ = 0;
    /** The lane the next observe() must name. */
    std::size_t next_lane_ = 0;
    LengthCache cache_;

    /** Lanes the last forecastAll fitted; block b is 8b to 8b+7. */
    std::vector<std::uint32_t> fitted_;

    std::size_t horizon_ = 0;
    /** Lane-major results: forecasts_[lane * horizon_ + step]. */
    std::vector<double> forecasts_;
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_FORECAST_POOL_HH
