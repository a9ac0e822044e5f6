/**
 * @file
 * The discrete-event serverless cluster simulator.
 *
 * Drives a trace through a cluster under a policy: streams each
 * interval's invocations at deterministic jittered timestamps, fires
 * the policy's interval hook at every decision boundary, places
 * invocations (warm pool, in-setup attach, cold start, or FIFO wait
 * queue), and produces the full SimulationMetrics.
 *
 * Arrivals never enter the event heap (PR 4): the whole arrival
 * schedule is precomputed once, and the run loop merges the current
 * interval's slice against the heap by (time, seq) -- with sequence
 * numbers block-reserved at the interval tick, so the pop order is
 * bit-for-bit the order the old per-arrival pushes produced. The wait
 * queue is a reusable ring over a vector instead of a std::deque.
 * Together with SimCapacityHints sized from a previous run's peaks,
 * a run's steady state performs no heap allocations at all.
 */

#ifndef ICEB_SIM_SIMULATOR_HH
#define ICEB_SIM_SIMULATOR_HH

#include <memory>
#include <optional>

#include "obs/trace_sink.hh"
#include "sim/cluster.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/oracle.hh"
#include "sim/policy.hh"
#include "sim/trace_source.hh"
#include "trace/trace.hh"
#include "workload/function_profile.hh"

namespace iceb::obs
{
class ProbeTable;
struct HistogramSet;
} // namespace iceb::obs

namespace iceb::sim
{

/** Run-level options. */
struct SimulatorOptions
{
    /** Seed for the deterministic within-interval arrival jitter. */
    std::uint64_t seed = 0x51AB'1CEBull;

    /**
     * Pre-sizing for the run's dynamic structures (never affects
     * results, only allocation counts). Feed a previous run's
     * SimulationMetrics::event_loop peaks back here to make a repeat
     * run allocation-free in steady state.
     */
    SimCapacityHints hints;

    /**
     * Observability sinks for this run (borrowed, may be null).
     * Observation is strictly write-only: attaching a recorder never
     * changes the simulation's results.
     */
    obs::RunRecorder *recorder = nullptr;

    /**
     * Options for run @p run_index of a repeated-seed experiment: the
     * run's RNG stream is derived purely from (base_seed, run_index),
     * so a grid of runs is reproducible regardless of how runs are
     * scheduled across threads. forRun(base, 0) reseeds with the
     * derived stream too (it is not the same as seed = base), so a
     * repeated grid is internally consistent from index 0 up.
     */
    static SimulatorOptions forRun(std::uint64_t base_seed,
                                   std::uint64_t run_index);
};

/**
 * Scalar counter snapshot for live exporters (serve::StatsExporter):
 * cheap to assemble mid-run — no sample-vector copies.
 */
struct LiveCounters
{
    std::uint64_t invocations = 0;
    std::uint64_t cold_starts = 0;
    std::uint64_t warm_starts = 0;
    std::int64_t wait_queue = 0;
    std::array<double, kNumTiers> keep_alive_cost{};
};

/**
 * One simulation run binding (trace, profiles, cluster, policy).
 */
class Simulator
{
  public:
    /**
     * @param tr        The invocation trace to replay.
     * @param profiles  Per-function profiles, indexed by FunctionId.
     * @param config    Cluster composition.
     * @param policy    The warm-up/keep-alive scheme under test.
     *
     * Wraps @p tr in an internal MaterializedTraceSource seeded with
     * options.seed — byte-identical to the pre-TraceSource engine.
     */
    Simulator(const trace::Trace &tr,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options = {});

    /**
     * Run against an external workload source (e.g. a
     * StreamingWorkloadSource). @p source must outlive the Simulator;
     * start() rewinds it, so one source can feed sequential runs.
     */
    Simulator(TraceSource &source,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options = {});

    /** Execute the whole trace and return the collected metrics. */
    SimulationMetrics run();

    // ----------------------------------------------------------------
    // Incremental stepping API: the serving-mode drivers advance the
    // same event loop run() uses, one unit at a time, so a paced
    // (wall-clock) replay processes the identical sequence and
    // produces byte-identical metrics.
    // ----------------------------------------------------------------

    /**
     * Initialise the policy (and, for OfflinePolicy schemes, grant
     * the OracleContext) and schedule the interval ticks. Idempotent
     * preamble of run(); must be called before step().
     */
    void start();

    /**
     * Process the next unit of work (one event pop or one streamed
     * arrival). Returns false when the run is exhausted.
     */
    bool step();

    /**
     * Simulated time of the next unit step() would process, or
     * nullopt when the run is exhausted. Lets a paced driver sleep
     * until the wall-clock deadline of the next event. (Non-const:
     * peeking the calendar queue may advance its lazy drain.)
     */
    std::optional<TimeMs> nextEventTime();

    /** Final bookkeeping; returns the collected metrics. */
    SimulationMetrics finish();

    /** Interval ticks processed so far (streaming progress signal). */
    std::size_t intervalsStarted() const { return intervals_started_; }

    /** Current simulated time. */
    TimeMs now() const { return now_; }

    /** Mid-run counter snapshot for live exporters. */
    LiveCounters liveCounters() const;

  private:
    struct QueuedInvocation
    {
        FunctionId fn = kInvalidFunction;
        TimeMs arrival = 0;
    };

    /** Delegation target of the public constructors: exactly one of
     * @p owned / @p external names the workload source. */
    Simulator(std::unique_ptr<TraceSource> owned, TraceSource *external,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options);

    /**
     * Body shared by run()'s hot loop and the public step(): kept as
     * a separate force-inlined helper so the batch loop keeps its
     * pre-stepping-API code shape (stats hoisted, no per-event call
     * overhead) while the incremental API executes the identical
     * logic one unit at a time.
     */
    bool stepImpl(EventLoopStats &stats);
    void openArrivalWindow(IntervalIndex interval);
    void handleArrival(FunctionId fn, TimeMs arrival);
    bool tryPlace(FunctionId fn, TimeMs arrival);
    void startExecution(const ClusterState::Acquisition &acq,
                        FunctionId fn, TimeMs arrival,
                        obs::ColdCause cause);
    void sampleIntervalProbes(IntervalIndex interval);
    void drainQueue();

    std::size_t waitCount() const
    {
        return wait_queue_.size() - wait_head_;
    }
    void pushWaiting(FunctionId fn, TimeMs arrival);
    void popWaiting();

    /** Set only by the Trace convenience constructor. */
    std::unique_ptr<TraceSource> owned_source_;
    TraceSource *source_ = nullptr;

    const std::vector<workload::FunctionProfile> &profiles_;
    const ClusterConfig &config_;
    Policy &policy_;
    SimulatorOptions options_;

    /** Workload geometry, cached off source_ (hot-loop reads). */
    std::size_t num_functions_ = 0;
    std::size_t num_intervals_ = 0;
    TimeMs interval_ms_ = 0;

    EventQueue events_;
    MetricsCollector metrics_;
    ClusterState cluster_;
    SimContext context_;
    OracleContext oracle_context_; //!< granted to OfflinePolicy only

    /** Resolved observability sinks (null when observation is off). */
    obs::TraceSink *tsink_ = nullptr;
    obs::ProbeTable *probes_ = nullptr;
    obs::HistogramSet *hists_ = nullptr;

    /** Open arrival window (current interval's borrowed view). */
    ArrivalWindow window_;
    std::size_t window_pos_ = 0;
    std::uint64_t stream_seq_base_ = 0;

    /** FIFO wait queue as a reusable ring over a vector. */
    std::vector<QueuedInvocation> wait_queue_;
    std::size_t wait_head_ = 0;

    /**
     * Arrivals observed (streamed through handleArrival) during the
     * open interval; pushed to the policy as an IntervalObservation at
     * the next boundary, then reset. This — not the trace — is what
     * online policies see.
     */
    std::vector<std::uint32_t> observed_counts_;

    std::size_t intervals_started_ = 0;
    bool started_ = false;

    TimeMs now_ = 0;
};

/** Convenience one-shot runner used by tests, examples and benches. */
SimulationMetrics
runSimulation(const trace::Trace &tr,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options = {});

/** As above, over an external workload source (streamed workloads). */
SimulationMetrics
runSimulation(TraceSource &source,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options = {});

} // namespace iceb::sim

#endif // ICEB_SIM_SIMULATOR_HH
