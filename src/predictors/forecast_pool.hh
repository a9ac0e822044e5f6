/**
 * @file
 * Batched structure-of-arrays forecasting engine for the FIP.
 *
 * A ForecastPool owns the invocation history of every registered
 * function as contiguous per-lane ring buffers, grouped by predictor
 * configuration so one cached FftPlan (and one factored trend system)
 * drives block transforms over many functions at once. forecastAll()
 * forecasts kLanes functions per block through the SoA kernels in
 * forecast_kernels.cc, optionally thread-parallel on the shared
 * TaskExecutor: blocks go to participants by a fixed interleaving
 * of a deterministic task list and every lane's arithmetic is
 * lane-local, so results are byte-identical for any --threads value.
 *
 * Equivalence contract (enforced by tests):
 *
 *  - default (exact) mode reproduces FftPredictor::forecastHorizon
 *    bit for bit: full-window lanes run the batched pipeline whose
 *    every stage replays the scalar operation sequence, and all other
 *    lanes (warm-up, short windows, silent windows,
 *    incremental-spectrum configs) take a scalar path that mirrors
 *    the predictor directly;
 *  - fast mode (ForecastPoolOptions::fast_path) evaluates the horizon
 *    by rotation recurrences, staying within 1e-9 of the scalar
 *    forecast; the harmonic fit is the same in both modes.
 *
 * Steady-state forecasting performs no heap allocations; the pool
 * allocates only when functions are added or a longer horizon is
 * first requested.
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
     * Opt-in fast arithmetic: rotation-recurrence trig in the
     * horizon evaluation. Diverges from the scalar path by <= 1e-9
     * per forecast value; the default false is bit-identical.
     */
    bool fast_path = false;

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

    /** Register a function; returns its slot id. */
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

        // Shared per-group caches, built lazily before forecasting.
        std::shared_ptr<const math::FftPlan> plan;
        math::SeriesPowerTable powers;
        math::FactoredSystem trend_system;
        bool caches_ready = false;

        /**
         * incremental_spectrum configs keep per-lane scalar
         * predictors: the sliding-DFT state is inherently
         * per-function, so the pool delegates instead of batching.
         */
        std::vector<std::unique_ptr<FftPredictor>> scalar;
    };

    struct SlotRef
    {
        std::uint32_t group = 0;
        std::uint32_t lane = 0;
    };

    /** Per-worker scratch: block buffers + scalar-path workspaces. */
    struct WorkerScratch
    {
        kernels::BlockScratch block;
        std::vector<double> window; //!< linearized scalar window
        std::vector<double> residual;
        std::vector<double> horizon_tmp;
        math::Polynomial trend;
        math::PolyfitWorkspace poly_ws;
        math::HarmonicsWorkspace harm_ws;
        std::vector<math::Harmonic> harmonics;
    };

    struct BlockTask
    {
        std::uint32_t group = 0;
        std::uint32_t first_lane = 0;
    };

    std::size_t groupFor(const FftPredictorConfig &config);
    void ensureGroupCaches(Group &group);
    void runBlock(const Group &group, const BlockTask &task,
                  WorkerScratch &scratch);
    /** Mirror of FftPredictor::forecastHorizon over one lane's ring. */
    void forecastLaneScalar(const Group &group, std::uint32_t lane,
                            WorkerScratch &scratch, double *out) const;

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
