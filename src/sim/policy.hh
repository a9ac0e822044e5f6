/**
 * @file
 * The warm-up / keep-alive policy interface.
 *
 * A Policy is the pluggable brain of the simulator: it decides at
 * every interval which functions to warm where (the paper's
 * inter-server dispatcher), how long containers stay alive after
 * execution, the tier order for cold placements, and the eviction
 * order under memory pressure. IceBreaker, OpenWhisk, Serverless in
 * the Wild, FaasCache and the Oracle all implement this interface.
 *
 * Observation contract: an online policy sees the workload only
 * through the streaming feed — the driver pushes each closed
 * interval's per-function arrival counts (onIntervalObserved) and
 * individual execution outcomes (onExecutionStart) as they happen.
 * This header deliberately knows nothing about trace::Trace, so a
 * policy written against it has no compile-time path to future
 * arrivals; the offline Oracle's privileged full-trace view lives in
 * the separate sim/oracle.hh and must be opted into explicitly.
 */

#ifndef ICEB_SIM_POLICY_HH
#define ICEB_SIM_POLICY_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "sim/cluster_config.hh"
#include "workload/function_profile.hh"

namespace iceb::obs
{
class RunRecorder;
} // namespace iceb::obs

namespace iceb::sim
{

/**
 * Everything an online policy may know at initialisation time. Note
 * the absence of any trace handle: arrivals reach the policy only
 * through the streaming observation feed, exactly the information a
 * real controller has at each point in time.
 */
struct SimContext
{
    /** Number of functions the driver will ever observe. */
    std::size_t num_functions = 0;

    const std::vector<workload::FunctionProfile> *profiles = nullptr;
    const ClusterConfig *cluster = nullptr;
    TimeMs interval_ms = 0;

    /**
     * This run's observability sinks, or null when observation is off.
     * Policies may append forecast probes; they must not base any
     * decision on it (observation never changes results).
     */
    obs::RunRecorder *recorder = nullptr;
};

/**
 * One closed decision interval's arrival observations, pushed by the
 * driver at the following interval boundary. The span is borrowed and
 * only valid for the duration of the onIntervalObserved call; policies
 * fold it into their own history state (predictor windows, histograms,
 * frequency counters) rather than retaining the pointer.
 */
struct IntervalObservation
{
    /** Index of the interval that just closed. */
    IntervalIndex interval = 0;

    /** Per-function arrival counts for that interval. */
    const std::uint32_t *arrivals = nullptr;
    std::size_t num_functions = 0;

    std::uint32_t arrivalsFor(FunctionId fn) const
    {
        return arrivals[fn];
    }
};

class Policy;

/**
 * Actions a policy can take on the cluster, plus the occupancy
 * signals the PDM's dynamic cut-offs need.
 */
class WarmupInterface
{
  public:
    virtual ~WarmupInterface() = default;

    /**
     * Ensure @p count warm (idle or in-setup) instances of @p fn on
     * @p tier, each kept alive until @p expiry. Missing instances are
     * created from vacant memory (never by eviction); existing ones
     * get their expiry extended. Returns the number of instances
     * provisioned (may be less than @p count under memory pressure).
     */
    virtual std::size_t ensureWarm(FunctionId fn, Tier tier,
                                   std::size_t count, TimeMs expiry) = 0;

    /**
     * Like ensureWarm, but a shortfall may evict other functions'
     * idle containers in @p policy's eviction-priority order (never
     * @p fn's own). This is how higher-utility warm-ups preempt
     * lower-priority ones under memory pressure.
     */
    virtual std::size_t ensureWarmEvicting(FunctionId fn, Tier tier,
                                           std::size_t count,
                                           TimeMs expiry,
                                           Policy &policy) = 0;

    /**
     * Schedule a warm-up to begin at @p start_time (>= now); used by
     * the Oracle's just-in-time strategy.
     */
    virtual void schedulePrewarm(FunctionId fn, Tier tier,
                                 TimeMs start_time, TimeMs expiry) = 0;

    /** Currently unallocated memory on a tier. */
    virtual MemoryMb vacantMemoryMb(Tier tier) const = 0;

    /** Total memory of a tier. */
    virtual MemoryMb totalMemoryMb(Tier tier) const = 0;

    /** Idle or in-setup instances of fn on a tier. */
    virtual std::size_t warmCount(FunctionId fn, Tier tier) const = 0;

    /** Current simulation time. */
    virtual TimeMs now() const = 0;
};

/**
 * Abstract warm-up / keep-alive policy.
 */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Scheme name for reports. */
    virtual const char *name() const = 0;

    /** Called once before the run. Default stores the context. */
    virtual void initialize(const SimContext &ctx) { ctx_ = &ctx; }

    /**
     * A decision interval closed: the driver pushes its per-function
     * arrival counts. Called before onIntervalStart of the following
     * interval; deliberately has no cluster access (observation hooks
     * cannot act, decision hooks cannot peek).
     */
    virtual void onIntervalObserved(const IntervalObservation &closed)
    {
        (void)closed;
    }

    /**
     * Called at every decision-interval boundary, before that
     * interval's invocations arrive.
     */
    virtual void
    onIntervalStart(IntervalIndex interval, WarmupInterface &cluster)
    {
        (void)interval;
        (void)cluster;
    }

    /** An invocation began executing (cold or warm) on a tier. */
    virtual void
    onExecutionStart(FunctionId fn, Tier tier, bool cold, TimeMs now)
    {
        (void)fn;
        (void)tier;
        (void)cold;
        (void)now;
    }

    /**
     * Keep-alive duration granted to a container whose execution just
     * finished; 0 destroys it immediately.
     */
    virtual TimeMs keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                             TimeMs now) = 0;

    /** Tier order to try for a cold placement (first = preferred). */
    virtual std::array<Tier, 2>
    coldPlacementOrder(FunctionId fn)
    {
        (void)fn;
        // The paper found competing schemes perform best when
        // prioritising high-end servers; that is the default.
        return {Tier::HighEnd, Tier::LowEnd};
    }

    /**
     * Eviction priority for an idle container under memory pressure;
     * the lowest value is reclaimed first. Default approximates LRU.
     */
    virtual double
    evictionPriority(FunctionId fn, Tier tier, TimeMs last_used,
                     TimeMs now)
    {
        (void)fn;
        (void)tier;
        (void)now;
        return static_cast<double>(last_used);
    }

    /** A warmed-up instance was destroyed without ever being used. */
    virtual void onWarmupWasted(FunctionId fn, Tier tier, TimeMs now)
    {
        (void)fn;
        (void)tier;
        (void)now;
    }

    /** An idle container was evicted to make room for a cold start. */
    virtual void onEviction(FunctionId fn, Tier tier, TimeMs now)
    {
        (void)fn;
        (void)tier;
        (void)now;
    }

    /**
     * Fixed per-invocation decision latency charged to every service
     * time (the paper accounts its 30 ms FIP+PDM overhead this way,
     * pessimistically on the critical path).
     */
    virtual TimeMs overheadMs() const { return 0; }

    /** Unused by the engine; perfbench/cc/probes.hh overrides it. */
    virtual bool shardCompatible() const { return false; }

  protected:
    const SimContext *ctx_ = nullptr;
};

} // namespace iceb::sim

#endif // ICEB_SIM_POLICY_HH
