/**
 * @file
 * Synthetic Azure-like trace generation.
 *
 * The real Microsoft Azure Functions trace is not redistributable, so
 * experiments are driven by a generator that reproduces the trace
 * properties the paper's mechanisms depend on (Sec. 2-3 and Figs. 4-5):
 *
 *  - ~98% of functions show periodic invocation concurrency;
 *  - 25% have more than one significant harmonic, 98% fewer than ten;
 *  - periodicity and concurrency levels drift over time;
 *  - a diurnal / low-order polynomial trend underlies many series;
 *  - some functions are infrequent (about once a day);
 *  - some functions are effectively random (hard-to-predict);
 *  - some functions exhibit sudden concurrency spikes.
 *
 * Generation is fully deterministic given the seed.
 */

#ifndef ICEB_TRACE_SYNTHETIC_HH
#define ICEB_TRACE_SYNTHETIC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "trace/stream_reader.hh"
#include "trace/trace.hh"

namespace iceb::trace
{

/**
 * Knobs for the synthetic generator; defaults mirror DESIGN.md.
 * Intervals are one minute long, like the Azure trace's; the burst
 * amplitude range (1 to 8, log-uniform) and the amplitude noise (10%
 * of the level) are constants in synthetic.cc.
 */
struct SyntheticConfig
{
    std::size_t num_functions = 400;
    std::size_t num_intervals = 2880; //!< 48 hours of 1-minute slots
    std::uint64_t seed = 0x1CEB'5EEDull;

    // Class mix (fractions of num_functions; remainder -> Periodic).
    double frac_multi_harmonic = 0.25; //!< Fig. 5(b): 25% >= 1 harmonic
    double frac_period_shift = 0.10;
    double frac_spiky = 0.08;
    double frac_infrequent = 0.10;
    double frac_random = 0.02; //!< Fig. 4(a): ~98% periodic overall

    // Burst-train period range in intervals (minutes, log-uniform).
    // Most functions repeat within the hour, like the Azure trace;
    // rarer-than-hourly behaviour is covered by the infrequent class.
    double min_period = 8.0;
    double max_period = 90.0;

    // Period of the slow amplitude modulation that gives series
    // their extra harmonics (Fig. 5a), in intervals.
    double min_mod_period = 120.0;
    double max_mod_period = 720.0;

    // Resource hint distributions (match the profile pool's spread).
    // Execution times skew short, like the Azure trace (median well
    // under a second), which keeps cold starts a significant fraction
    // of service time -- the regime the paper targets.
    MemoryMb min_memory_mb = 128;
    MemoryMb max_memory_mb = 4096;
    TimeMs min_exec_ms = 100;
    TimeMs max_exec_ms = 3500;
};

/**
 * Generates traces per SyntheticConfig. Each call to generate() is
 * independent and deterministic.
 *
 * Functions are generated in batches on the shared TaskExecutor:
 * every function's RNG fork is drawn from the master stream serially
 * in id order (a fork advances the master), and the batch's series
 * are then filled in parallel, each from its own fork only. The
 * output is therefore the same for any worker count.
 */
class SyntheticTraceGenerator
{
  public:
    /**
     * Concurrency samples one generation batch holds: a batch is
     * kBatchCounts / num_intervals functions (2048 functions of a
     * 1440-interval day, 11.25 MiB of counts), and at least one.
     */
    static constexpr std::size_t kBatchCounts = std::size_t{2048} * 1440;

    explicit SyntheticTraceGenerator(SyntheticConfig config = {});

    /** Produce a full trace. */
    Trace generate() const;

    /** Functions per generation batch for this config. */
    std::size_t batchFunctions() const;

    /**
     * Produce a single series of the given class over the configured
     * horizon (used by predictor benches that want one controlled
     * signal, e.g. the Fig. 4 period-switch series).
     */
    FunctionSeries generateSeries(FunctionClass cls,
                                  std::uint64_t stream_id) const;

    const SyntheticConfig &config() const { return config_; }

  private:
    friend class SyntheticRowStream;

    /** Where a batched generation pass stands (see nextBatch()). */
    struct Cursor
    {
        Rng master;
        std::vector<FunctionClass> classes;
        std::vector<Rng> forks; //!< the current batch's forks
        std::size_t next_fn = 0;
    };

    /** A cursor at function 0 (the class plan drawn, no forks yet). */
    Cursor startCursor() const;

    /**
     * The one batched generator behind generate() and
     * SyntheticRowStream: fills @p batch with the next
     * batchFunctions() functions (fewer at the end) and advances
     * @p cursor; false once every function has been generated.
     * Buffers are sized on the calling thread and only written by the
     * workers, so no batch memory lands in a worker's malloc arena.
     */
    bool nextBatch(Cursor &cursor,
                   std::vector<FunctionSeries> &batch) const;

    std::vector<FunctionClass> classPlan(Rng &master) const;

    /** Generate into @p series, whose concurrency must already hold
     * num_intervals entries; allocates nothing. */
    void makeSeriesInto(FunctionClass cls, Rng rng,
                        FunctionSeries &series) const;
    void fillResourceHints(FunctionSeries &series, Rng &rng) const;

    SyntheticConfig config_;
};

/**
 * Streams the exact functions generate() would produce, one at a
 * time, without materializing the trace: function i of the stream is
 * byte-identical (name, hints, concurrency) to function i of the
 * generated Trace for the same config. This is the workload source
 * for Azure-scale runs that would not fit in memory as a Trace: it
 * holds one generation batch, filled in parallel whenever next()
 * steps past the previous one.
 */
class SyntheticRowStream final : public FunctionRowSource
{
  public:
    explicit SyntheticRowStream(SyntheticConfig config = {});

    TimeMs intervalMs() const override;
    bool next(FunctionRow &row) override;

    std::size_t numFunctions() const
    {
        return generator_.config().num_functions;
    }

  private:
    SyntheticTraceGenerator generator_;
    SyntheticTraceGenerator::Cursor cursor_;
    std::vector<FunctionSeries> batch_; //!< reused across batches
    std::size_t batch_first_ = 0;       //!< id of batch_[0]
    std::size_t next_fn_ = 0;
};

/**
 * Synthetic preset shaped like the full Azure Functions trace
 * (Shahrad et al., ATC'20) rather than the small figure workloads:
 * a heavy tail of rarely-invoked functions, a skewed head of hot
 * periodic ones, day-scale periods, and memory/exec hint ranges that
 * span all four SeBS application categories
 * (workload::sebsCategoryProfiles) so the profile matcher exercises
 * the whole pool. Deterministic for a given function count.
 */
SyntheticConfig azureScaleConfig(std::size_t num_functions = 100'000,
                                 std::size_t num_intervals = 1440);

/**
 * The specific series used by Figs. 4(b) and 10: a sinusoidal
 * concurrency pattern whose period switches at @p switch_interval
 * (e.g. 24 -> 36 minutes), exercising predictor re-convergence.
 */
std::vector<double> makePeriodSwitchSignal(std::size_t num_intervals,
                                           double period_before,
                                           double period_after,
                                           std::size_t switch_interval,
                                           double level, double amplitude);

/** One periodic burst train (the building block of the generator). */
struct BurstTrain
{
    double period = 30.0;    //!< intervals between burst starts
    double phase = 0.0;      //!< offset of the first burst
    int burst_len = 1;       //!< consecutive active intervals
    double amplitude = 2.0;  //!< concurrency at burst peak
    double mod_period = 360; //!< slow amplitude-modulation period
    double mod_phase = 0.0;
    double mod_depth = 0.4;  //!< modulation depth in [0, 1)
};

/**
 * Evaluate a burst train at interval @p t: the (real-valued)
 * concurrency contributed by this train, zero between bursts.
 */
double evaluateBurstTrain(const BurstTrain &train, double t);

/**
 * A sparse burst train whose period switches at @p switch_interval
 * (the hard case of Figs. 4(b)/10: a one-step predictor must know
 * *when* the next burst lands, which takes period knowledge, not
 * just local smoothness).
 */
std::vector<double> makePeriodSwitchPulseTrain(
    std::size_t num_intervals, double period_before,
    double period_after, std::size_t switch_interval, int burst_width,
    double amplitude);

} // namespace iceb::trace

#endif // ICEB_TRACE_SYNTHETIC_HH
