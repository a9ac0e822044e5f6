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
 * buffers; lane i is function i. forecastAll() forecasts up to kLanes
 * functions per block through the SoA kernels in forecast_kernels.cc,
 * optionally thread-parallel on the shared TaskExecutor: block
 * membership depends only on the lanes' histories, blocks go to
 * participants by a fixed interleaving, and every lane's arithmetic
 * is lane-local, so results are byte-identical for any --threads
 * value. The kernels are the repository's only FIP implementation;
 * FftPredictor is a one-function pool.
 *
 * Every lane holding at least min_samples samples is fitted by
 * kernels::forecastBlock at n = its sample count, warm-up included:
 * the pool caches one FftPlan, SeriesPowerTable and factored trend
 * system per length it has seen, built serially before dispatch.
 * Blocks are dense: forecastAll walks the lanes in order and packs
 * each lane it fits into the open block of its sample count, which
 * closes at kLanes lanes, so only a count's last block can be
 * partial. Silent lanes (observe keeps a per-lane count of non-zero
 * samples) forecast zeros without entering a block, and lanes below
 * min_samples forecast their window mean.
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
 * allocates only when functions are added, a lane reaches a sample
 * count it has not fitted before, an interval packs more blocks than
 * any before it, or a longer horizon or window is first requested
 * (block scratch is per thread, shared by every pool).
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
     * Register a function; returns its id. The first call fixes the
     * pool's config, whose min_samples must be at least 8, the
     * kernels' shortest fit; every later call must pass the same one.
     */
    std::size_t addFunction(const FftPredictorConfig &config);

    /**
     * Append one interval's observation, clamped at 0; a full window
     * drops its oldest sample.
     */
    void observe(std::size_t fn, double concurrency);

    /**
     * Forecast the next @p horizon intervals for every function.
     * Results are read back per function via forecast().
     */
    void forecastAll(std::size_t horizon);

    /**
     * The @p horizon values of @p fn from the last forecastAll
     * (element 0 is the next interval's prediction). @p fn must have
     * been registered before that call.
     */
    const double *forecast(std::size_t fn) const;

  private:
    /** Kernel tables for fitting windows of one length n. */
    struct LengthCache
    {
        std::shared_ptr<const math::FftPlan> plan; //!< null until built
        math::SeriesPowerTable powers;
        math::FactoredSystem trend_system;
    };

    /** Up to kLanes lanes that one kernel pass fits at length n. */
    struct Block
    {
        std::uint32_t n = 0;
        std::uint32_t size = 0;
        std::uint32_t lane[kernels::kLanes] = {};
    };

    /** Build the kernel tables for fits of length @p n. */
    void ensureLengthCache(std::size_t n);
    void runBlock(const Block &block);

    ForecastPoolOptions options_;
    FftPredictorConfig cfg_;
    /** Lane-major ring storage: ring_[lane * window + pos]. */
    std::vector<double> ring_;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> count_;
    /** Non-zero samples in each lane's window (0 = silent). */
    std::vector<std::uint32_t> nonzero_;
    /** Shared kernel tables indexed by sample count (0..window). */
    std::vector<LengthCache> lengths_;

    /** The last forecastAll's blocks, in the order lanes filled them. */
    std::vector<Block> blocks_;
    /** Per sample count, the index of its open block (or kNoBlock). */
    std::vector<std::uint32_t> open_block_;

    std::size_t horizon_ = 0;
    /** Lane-major results: forecasts_[lane * horizon_ + step]. */
    std::vector<double> forecasts_;
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_FORECAST_POOL_HH
