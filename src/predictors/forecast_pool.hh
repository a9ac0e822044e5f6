/**
 * @file
 * Batched structure-of-arrays forecasting engine for the FIP.
 *
 * A ForecastPool owns the invocation history of every registered
 * function as contiguous per-lane ring buffers, grouped by predictor
 * configuration. forecastAll() forecasts kLanes functions per block
 * through the SoA kernels in forecast_kernels.cc, optionally
 * thread-parallel on the shared TaskExecutor: blocks go to
 * participants by a fixed interleaving of a deterministic task list
 * and every lane's arithmetic is lane-local, so results are
 * byte-identical for any --threads value.
 *
 * Every lane holding at least min_samples samples is fitted by
 * kernels::forecastBlock at n = its sample count, warm-up included:
 * each group caches one FftPlan, SeriesPowerTable and factored trend
 * system per length it has seen, built serially before dispatch. A
 * block whose lanes hold different counts runs one kernel pass per
 * distinct count. Silent lanes forecast zeros, and lanes below
 * min_samples forecast their window mean.
 *
 * Equivalence contract (enforced by tests): every forecast reproduces
 * FftPredictor::forecastHorizon bit for bit, because each kernel
 * stage replays the scalar operation sequence.
 *
 * Steady-state forecasting performs no heap allocations; the pool
 * allocates only when functions are added, a lane reaches a sample
 * count it has not fitted before, or a longer horizon is first
 * requested.
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

/** Pool-wide knobs (per-function knobs ride in FftPredictorConfig). */
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
 * The batched forecaster. Functions are addressed by the dense slot
 * id addFunction returns; slots are reused after removeFunction.
 */
class ForecastPool
{
  public:
    explicit ForecastPool(ForecastPoolOptions options = {});

    /**
     * Register a function; returns its slot id. The config's
     * min_samples must be at least 8, the kernels' shortest fit.
     */
    std::size_t addFunction(const FftPredictorConfig &config);

    /** Retire a slot (its lane and id are recycled). */
    void removeFunction(std::size_t slot);

    /** Append one interval's observation (FftPredictor::observe). */
    void observe(std::size_t slot, double concurrency);

    /** Clear a slot's history (FftPredictor::reset). */
    void reset(std::size_t slot);

    /** Samples currently held in the slot's window. */
    std::size_t sampleCount(std::size_t slot) const;

    /** Live (non-retired) function count. */
    std::size_t size() const { return live_count_; }

    /** Horizon of the most recent forecastAll (0 before the first). */
    std::size_t horizon() const { return horizon_; }

    const ForecastPoolOptions &options() const { return options_; }

    /**
     * Forecast the next @p horizon intervals for every live slot.
     * Results are read back per slot via forecast(); retired slots
     * keep zeros.
     */
    void forecastAll(std::size_t horizon);

    /**
     * The @p horizon values of @p slot from the last forecastAll
     * (element 0 is the next interval's prediction).
     */
    const double *forecast(std::size_t slot) const;

  private:
    /** Kernel tables for fitting windows of one length n. */
    struct LengthCache
    {
        std::shared_ptr<const math::FftPlan> plan; //!< null until built
        math::SeriesPowerTable powers;
        math::FactoredSystem trend_system;
    };

    struct Group
    {
        FftPredictorConfig cfg;
        std::size_t lanes = 0; //!< allocated lanes (incl. free)
        /** Lane-major ring storage: ring[lane * window + pos]. */
        std::vector<double> ring;
        std::vector<std::uint32_t> head;
        std::vector<std::uint32_t> count;
        std::vector<std::uint32_t> slot_of_lane;
        std::vector<std::uint32_t> free_lanes;
        /** Shared kernel tables indexed by sample count (0..window). */
        std::vector<LengthCache> lengths;
    };

    struct SlotRef
    {
        std::uint32_t group = 0;
        std::uint32_t lane = 0;
    };

    /** Per-worker scratch: block buffers + the SoA horizon output. */
    struct WorkerScratch
    {
        kernels::BlockScratch block;
        std::vector<double> horizon_tmp;
    };

    struct BlockTask
    {
        std::uint32_t group = 0;
        std::uint32_t first_lane = 0;
    };

    std::size_t groupFor(const FftPredictorConfig &config);
    /** Build @p group's kernel tables for fits of length @p n. */
    static void ensureLengthCache(Group &group, std::size_t n);
    void runBlock(const Group &group, const BlockTask &task,
                  WorkerScratch &scratch);

    ForecastPoolOptions options_;
    std::vector<Group> groups_;
    std::vector<SlotRef> slots_;
    std::vector<std::uint32_t> free_slots_;
    std::size_t live_count_ = 0;

    std::size_t horizon_ = 0;
    /** Slot-major results: forecasts_[slot * horizon_ + step]. */
    std::vector<double> forecasts_;
    std::vector<BlockTask> tasks_;
    std::vector<WorkerScratch> workers_;
};

} // namespace iceb::predictors

#endif // ICEB_PREDICTORS_FORECAST_POOL_HH
