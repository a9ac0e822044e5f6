/**
 * @file
 * Metric accounting for the cluster simulator.
 *
 * Records exactly the quantities the paper evaluates: per-invocation
 * service time split into wait + cold-start + execution (+ scheme
 * overhead), and keep-alive cost split per tier into successful
 * (warm-up later consumed by an invocation) and wasteful (warmed but
 * never invoked) components, plus memory wastage.
 */

#ifndef ICEB_SIM_METRICS_HH
#define ICEB_SIM_METRICS_HH

#include <vector>

#include "common/types.hh"

namespace iceb::sim
{

/** Final disposition of one invocation. */
struct InvocationOutcome
{
    FunctionId fn = kInvalidFunction;
    Tier tier = Tier::HighEnd;
    bool cold = false;
    TimeMs arrival = 0;
    TimeMs wait_ms = 0;
    TimeMs cold_start_ms = 0;
    TimeMs exec_ms = 0;
    TimeMs overhead_ms = 0; //!< scheme decision latency (paper Sec. 5)

    /** End-to-end service time as the paper defines it. */
    TimeMs serviceMs() const
    {
        return wait_ms + cold_start_ms + exec_ms + overhead_ms;
    }
};

/** Per-function aggregates. */
struct FunctionMetrics
{
    std::uint64_t invocations = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t warm_starts = 0;
    double sum_service_ms = 0.0;
    double sum_wait_ms = 0.0;
    double sum_cold_ms = 0.0;
    double sum_exec_ms = 0.0;
    Dollars keep_alive_cost = 0.0; //!< successful + wasteful

    double meanServiceMs() const
    {
        return invocations == 0
            ? 0.0
            : sum_service_ms / static_cast<double>(invocations);
    }
};

/**
 * Event-loop and data-structure observability (PR 4): how much work
 * the sim core did to produce a run, so heap-churn regressions show
 * up in bench_sim's perf artifact. The peaks double as capacity
 * hints: feeding them back through SimCapacityHints makes a repeat
 * run allocation-free.
 */
struct EventLoopStats
{
    /** Events processed, indexed by EventType (streamed arrivals
     * count as popped InvocationArrivals). */
    std::uint64_t popped[6] = {};

    std::uint64_t stale_expiry_events = 0;  //!< expiry for gone/renewed
    /**
     * Stale evict-heap entries, each counted once: skipped at pop or
     * dropped when a tier's heap compacts. Entries still pending when
     * the run ends are not counted.
     */
    std::uint64_t stale_evict_entries = 0;
    std::uint64_t eviction_victims_examined = 0; //!< evict-heap pops

    std::uint64_t peak_live_containers = 0;
    std::uint64_t peak_pending_events = 0;
    std::uint64_t peak_bucket_events = 0; //!< calendar-queue bucket depth
    /**
     * Largest size a tier's evict heap reached. Compaction bounds it
     * by max(4096, 2 x the live entries the previous compaction
     * kept), so it is not the number of idle spells.
     */
    std::uint64_t peak_evict_entries = 0;
    std::uint64_t peak_wait_queue = 0;

    std::uint64_t totalPopped() const
    {
        std::uint64_t total = 0;
        for (std::uint64_t count : popped)
            total += count;
        return total;
    }

    /** Counts add, peaks take the max (replicate pooling). */
    void merge(const EventLoopStats &other);
};

/** Per-tier keep-alive accounting. */
struct TierKeepAlive
{
    Dollars successful_cost = 0.0;
    Dollars wasteful_cost = 0.0;
    double wasted_mb_ms = 0.0; //!< memory wastage (wasteful idle)

    Dollars totalCost() const { return successful_cost + wasteful_cost; }
};

/** Everything a simulation run produces. */
struct SimulationMetrics
{
    std::uint64_t invocations = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t warm_starts = 0;

    /** Cold-start cause split (diagnostics for the benches). */
    std::uint64_t cold_no_container = 0;   //!< nothing warm existed
    std::uint64_t cold_all_busy = 0;       //!< instances under-provisioned
    std::uint64_t cold_setup_attach = 0;   //!< warm-up arrived too late

    double sum_service_ms = 0.0;
    double sum_wait_ms = 0.0;
    double sum_cold_ms = 0.0;
    double sum_exec_ms = 0.0;
    double sum_overhead_ms = 0.0;

    /** Every invocation's service time in ms (for CDFs/percentiles). */
    std::vector<float> service_times_ms;

    /** Service times split by executing tier. */
    std::vector<float> service_times_high_ms;
    std::vector<float> service_times_low_ms;

    /** Per-function aggregates indexed by FunctionId. */
    std::vector<FunctionMetrics> per_function;

    /** Keep-alive cost per tier. */
    TierKeepAlive keep_alive[kNumTiers];

    /** Sim-core work counters (not part of any figure's output). */
    EventLoopStats event_loop;

    double meanServiceMs() const
    {
        return invocations == 0
            ? 0.0
            : sum_service_ms / static_cast<double>(invocations);
    }
    double meanWaitMs() const
    {
        return invocations == 0
            ? 0.0
            : sum_wait_ms / static_cast<double>(invocations);
    }
    double meanColdMs() const
    {
        return invocations == 0
            ? 0.0
            : sum_cold_ms / static_cast<double>(invocations);
    }
    double meanExecMs() const
    {
        return invocations == 0
            ? 0.0
            : sum_exec_ms / static_cast<double>(invocations);
    }
    double warmStartFraction() const
    {
        return invocations == 0
            ? 0.0
            : static_cast<double>(warm_starts) /
                static_cast<double>(invocations);
    }
    Dollars totalKeepAliveCost() const
    {
        Dollars total = 0.0;
        for (const auto &tier : keep_alive)
            total += tier.totalCost();
        return total;
    }
    const TierKeepAlive &tierKeepAlive(Tier tier) const
    {
        return keep_alive[static_cast<std::size_t>(tierIndex(tier))];
    }

    /**
     * Fold another run's metrics into this one. Counts and sums add,
     * service-time samples concatenate (percentile pooling), and
     * per-function aggregates add entrywise; both runs must therefore
     * cover the same function set. Merging the per-run metrics of a
     * partitioned invocation set yields exactly the metrics of
     * collecting the whole set at once.
     */
    void merge(const SimulationMetrics &other);
};

/**
 * Accumulates metrics during a run.
 */
class MetricsCollector
{
  public:
    /** Prepare per-function slots. */
    explicit MetricsCollector(std::size_t num_functions);

    /** Record one finished invocation. */
    void recordInvocation(const InvocationOutcome &outcome);

    /** Classify a cold start's cause (see SimulationMetrics fields). */
    void recordColdCause(bool setup_attach, bool had_live_containers);

    /**
     * Record the cost of one idle-warm period.
     *
     * @param successful True when the period ended in a warm start.
     * @param rate_mb_ms Tier keep-alive rate in $/(MB*ms).
     */
    void recordKeepAlive(Tier tier, FunctionId fn, MemoryMb memory_mb,
                         TimeMs idle_ms, bool successful,
                         double rate_mb_ms);

    /**
     * Pre-size the per-sample vectors for @p invocations records, so
     * the record path never reallocates mid-run.
     */
    void reserveSamples(std::size_t invocations);

    /** Mutable access to the event-loop counters. */
    EventLoopStats &eventLoop() { return metrics_.event_loop; }

    /** Read-only view of the accumulating metrics (probe sampling). */
    const SimulationMetrics &current() const { return metrics_; }

    /** Finish and take the result. */
    SimulationMetrics take();

  private:
    SimulationMetrics metrics_;
};

} // namespace iceb::sim

#endif // ICEB_SIM_METRICS_HH
