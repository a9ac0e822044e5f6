/**
 * @file
 * Batched structure-of-arrays forecasting engine for the FIP.
 *
 * A ForecastPool holds one FftPredictorConfig and the invocation
 * history of every registered function as contiguous per-lane ring
 * buffers; lane i is function i. forecastAll() forecasts up to kLanes
 * functions per block through the SoA kernels in forecast_kernels.cc,
 * optionally thread-parallel on the shared TaskExecutor: block
 * membership depends only on the lanes' histories, blocks go to
 * participants by a fixed interleaving, and every lane's arithmetic
 * is lane-local, so results are byte-identical for any --threads
 * value.
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
 * Equivalence contract (enforced by tests): every forecast reproduces
 * FftPredictor::forecastHorizon bit for bit, because each kernel
 * stage replays the scalar operation sequence.
 *
 * Steady-state forecasting performs no heap allocations; the pool
 * allocates only when functions are added, a lane reaches a sample
 * count it has not fitted before, an interval packs more blocks than
 * any before it, or a longer horizon is first requested.
 */

#ifndef ICEB_PREDICTORS_FORECAST_POOL_HH
#define ICEB_PREDICTORS_FORECAST_POOL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "predictors/fft_predictor.hh"
#include "predictors/forecast_kernels.hh"

namespace iceb::predictors
{

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

    /** Append one interval's observation (FftPredictor::observe). */
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

    /** Per-worker scratch: block buffers + the SoA horizon output. */
    struct WorkerScratch
    {
        kernels::BlockScratch block;
        std::vector<double> horizon_tmp;
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
    void runBlock(const Block &block, WorkerScratch &scratch);

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
    std::vector<WorkerScratch> workers_;
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_FORECAST_POOL_HH
