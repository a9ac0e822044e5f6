/**
 * @file
 * Live cluster state: servers, containers, warm pools, eviction.
 *
 * Containers move through Setup -> IdleWarm -> Running and back to
 * IdleWarm (or destruction) exactly like OpenWhisk's Docker container
 * lifecycle the paper builds on. All memory accounting and keep-alive
 * cost attribution happens here:
 *
 *  - an idle-warm period that ends in a warm start is a *successful*
 *    warm-up cost;
 *  - an idle-warm period that ends in expiry or eviction is a
 *    *wasteful* warm-up cost (and memory wastage);
 *  - setup and execution time occupy memory but are not keep-alive
 *    cost (so the Oracle's just-in-time scheme is genuinely free, as
 *    the paper defines it).
 *
 * Hot-path data structures (PR 4, all preserving byte-identical
 * outputs -- see DESIGN.md section 9):
 *
 *  - containers live in a generational SlotMap arena; stale event and
 *    evict-heap references fail a generation check instead of a hash
 *    probe;
 *  - each tier keeps an indexed max-heap over server free memory, so
 *    worst-fit placement and the evictToFit loop are O(log servers)
 *    instead of O(servers) per step;
 *  - the idle/setup pools are intrusive doubly-linked lists threaded
 *    through the containers (O(1) removal anywhere). Linked lists --
 *    not swap-and-pop -- because the pools are *ordered*: acquireWarm
 *    takes the LIFO tail and ensureWarm renews newest-first, so
 *    scrambling the order would change which containers serve and
 *    which expire, and with them every figure's cost attribution.
 */

#ifndef ICEB_SIM_CLUSTER_HH
#define ICEB_SIM_CLUSTER_HH

#include <optional>
#include <vector>

#include "common/types.hh"
#include "obs/trace_sink.hh"
#include "sim/cluster_config.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"
#include "sim/policy.hh"
#include "sim/server_heap.hh"
#include "sim/slot_map.hh"
#include "workload/function_profile.hh"

namespace iceb::sim
{

/** Lifecycle state of a container. */
enum class ContainerState : std::uint8_t
{
    Setup,    //!< image fetch + container creation (cold-start work)
    IdleWarm, //!< warm, waiting for an invocation; accrues cost
    Running,  //!< executing an invocation
};

/** "No slot" sentinel for the intrusive pool links. */
inline constexpr std::uint32_t kNullSlot = 0xffff'ffffu;

/** One container instance. */
struct Container
{
    ContainerId id = 0;
    FunctionId fn = kInvalidFunction;
    ServerId server = kInvalidServer;
    Tier tier = Tier::HighEnd;
    ContainerState state = ContainerState::Setup;
    MemoryMb memory_mb = 0;

    TimeMs ready_at = 0;    //!< when setup completes/completed
    TimeMs idle_since = 0;  //!< start of the current idle period
    TimeMs expiry = 0;      //!< keep-alive deadline while idle
    TimeMs last_used = 0;   //!< last execution start (or ready time)
    bool prewarmed_unused = false;  //!< warmed by policy, not yet used

    /** Intrusive idle/setup pool links (slot indices). */
    std::uint32_t pool_prev = kNullSlot;
    std::uint32_t pool_next = kNullSlot;
};

/** One physical server's memory ledger. */
struct Server
{
    ServerId id = kInvalidServer;
    Tier tier = Tier::HighEnd;
    MemoryMb capacity_mb = 0;
    MemoryMb free_mb = 0;
};

/**
 * Pre-sizing hints for a run's dynamic structures; with all four set
 * to a previous run's peaks (SimulationMetrics::event_loop), a repeat
 * run performs zero steady-state allocations. Zero means "grow on
 * demand" (amortised, exactly as before).
 */
struct SimCapacityHints
{
    std::size_t containers = 0;    //!< slot-map arena slots
    std::size_t events = 0;        //!< pending-event queue + payload pool
    std::size_t events_per_bucket = 0; //!< calendar-queue bucket depth
    std::size_t evict_entries = 0; //!< per-tier eviction heap entries
    std::size_t wait_queue = 0;    //!< FIFO wait-queue ring capacity
};

/**
 * The mutable cluster: implements the policy-facing WarmupInterface
 * and the simulator-facing placement/lifecycle operations.
 */
class ClusterState : public WarmupInterface
{
  public:
    ClusterState(const ClusterConfig &config,
                 const std::vector<workload::FunctionProfile> &profiles,
                 EventQueue &events, MetricsCollector &metrics,
                 const SimCapacityHints &hints = {});

    /** Advance the cluster's notion of "now". */
    void setNow(TimeMs now) { now_ = now; }

    /** Attach this run's trace sink (null = tracing off). */
    void setTraceSink(obs::TraceSink *sink) { tsink_ = sink; }

    /**
     * Sum the idle-warm / in-setup pool sizes per tier (probe
     * sampling; O(functions)).
     */
    void sampleOccupancy(
        std::array<std::int64_t, kNumTiers> &idle_warm,
        std::array<std::int64_t, kNumTiers> &in_setup) const;

    // WarmupInterface
    TimeMs now() const override { return now_; }
    std::size_t ensureWarm(FunctionId fn, Tier tier, std::size_t count,
                           TimeMs expiry) override;
    std::size_t ensureWarmEvicting(FunctionId fn, Tier tier,
                                   std::size_t count, TimeMs expiry,
                                   Policy &policy) override;
    void schedulePrewarm(FunctionId fn, Tier tier, TimeMs start_time,
                         TimeMs expiry) override;
    MemoryMb vacantMemoryMb(Tier tier) const override;
    MemoryMb totalMemoryMb(Tier tier) const override;
    std::size_t warmCount(FunctionId fn, Tier tier) const override;

    /** Result of acquiring a container for an invocation. */
    struct Acquisition
    {
        ContainerId id = 0;
        Tier tier = Tier::HighEnd;
        TimeMs ready_at = 0; //!< when execution may begin
        bool cold = false;   //!< counts as a cold start
    };

    /**
     * Take an idle-warm container (high tier first per @p order).
     * Marks it Running and records the successful keep-alive period.
     */
    std::optional<Acquisition>
    acquireWarm(FunctionId fn, const std::array<Tier, 2> &order);

    /**
     * Attach to an in-setup container (soonest-ready within the tier
     * order); the invocation pays the remaining setup latency as its
     * cold-start time.
     */
    std::optional<Acquisition>
    acquireSetup(FunctionId fn, const std::array<Tier, 2> &order);

    /**
     * Start a fresh cold container, evicting idle containers (in
     * @p policy's priority order) if needed. Fails only when running
     * and in-setup containers exhaust the memory of both tiers.
     */
    std::optional<Acquisition>
    acquireCold(FunctionId fn, const std::array<Tier, 2> &order,
                Policy &policy);

    /** Mark a container as executing until @p exec_end. */
    void startExecution(ContainerId id, TimeMs exec_end);

    /**
     * Execution finished: keep the container warm for
     * @p keep_alive_ms (0 destroys it immediately).
     */
    void finishExecution(ContainerId id, TimeMs keep_alive_ms,
                         Policy &policy);

    /** Event handlers driven by the simulator. */
    void handlePrewarmStart(const Event &event, Policy &policy);
    void handlePrewarmReady(const Event &event, Policy &policy);
    void handleContainerExpiry(const Event &event, Policy &policy);

    /** Container lookup (asserts existence). */
    const Container &container(ContainerId id) const;

    /**
     * Prefetch the arena record behind @p id (possibly stale; 0 is
     * fine). Pure performance hint -- the event loop issues it for
     * the next pending event so the line arrives while the current
     * handler's work is still in flight.
     */
    void prefetchContainer(ContainerId id) const
    {
        containers_.prefetch(SlotMap<Container>::slotOf(id));
    }

    /** Live containers (any state) of one function. */
    std::uint32_t liveCount(FunctionId fn) const
    {
        return live_per_fn_[fn];
    }

    /** Prewarm requests dropped because no memory was vacant. */
    std::uint64_t prewarmFailures() const { return prewarm_failures_; }

  private:
    /**
     * Lazy eviction-candidate record, 24 bytes: every idle spell
     * pushes one, and stale ones are skipped at pop or dropped when
     * the heap compacts. Validity is one stamp compare -- the entry
     * snapshots the container's expiry stamp, which changes at
     * exactly the moments the candidacy dies (acquired, destroyed,
     * renewed, or idled again with a fresh entry). Stamps are never
     * reused, so a stale entry never turns valid again.
     */
    struct EvictEntry
    {
        double priority = 0.0;
        std::uint64_t stamp = 0; //!< expiry stamp snapshot
        std::uint32_t slot = 0;  //!< container arena slot
        std::uint32_t seq = 0;   //!< push order, for deterministic ties

        bool operator>(const EvictEntry &other) const
        {
            if (priority != other.priority)
                return priority > other.priority;
            return seq > other.seq;
        }
    };

    /** Min-heap order (lowest priority evicted first). */
    struct EvictLater
    {
        bool operator()(const EvictEntry &a, const EvictEntry &b) const
        {
            return a > b;
        }
    };

    using EvictHeap = std::vector<EvictEntry>;

    /** A tier's eviction heap never compacts below this size. */
    static constexpr std::size_t kEvictCompactFloor = 4096;

    /** Intrusive container list in insertion order. */
    struct PoolList
    {
        std::uint32_t head = kNullSlot;
        std::uint32_t tail = kNullSlot;
        std::uint32_t size = 0;
    };

    /** Setup pool: insertion-ordered list + cached min-ready_at slot. */
    struct SetupList : PoolList
    {
        std::uint32_t min_slot = kNullSlot;
    };

    /** Per-function per-tier container pools. */
    struct FunctionPools
    {
        std::array<PoolList, kNumTiers> idle;
        std::array<SetupList, kNumTiers> setup;
    };

    const workload::FunctionProfile &profileOf(FunctionId fn) const;
    double rateMbMs(Tier tier) const;
    ServerId pickServer(Tier tier, MemoryMb memory_mb) const;
    ContainerId createContainer(FunctionId fn, Tier tier, ServerId server,
                                ContainerState state);
    void becomeIdle(Container &c, TimeMs expiry, Policy *policy);
    void destroyContainer(Container &c, bool wasteful, Policy *policy);
    bool evictToFit(Tier tier, MemoryMb memory_mb, Policy &policy,
                    FunctionId exclude_fn = kInvalidFunction);
    std::size_t ensureWarmImpl(FunctionId fn, Tier tier,
                               std::size_t count, TimeMs expiry,
                               Policy *evict_with);
    void scheduleExpiry(Container &c);
    void pushEvictEntry(const Container &c, double priority);
    void compactEvictHeap(std::size_t tier);

    void poolPushBack(PoolList &list, Container &c);
    void poolUnlink(PoolList &list, Container &c);
    void setupPushBack(SetupList &list, Container &c);
    void setupUnlink(SetupList &list, Container &c);

    const ClusterConfig &config_;
    const std::vector<workload::FunctionProfile> &profiles_;
    EventQueue &events_;
    MetricsCollector &metrics_;
    obs::TraceSink *tsink_ = nullptr;

    TimeMs now_ = 0;
    std::vector<Server> servers_;
    std::array<std::vector<ServerId>, kNumTiers> tier_servers_;
    std::array<ServerFreeHeapT<std::vector<Server>>, kNumTiers>
        server_heaps_;
    std::array<MemoryMb, kNumTiers> tier_free_{0, 0};
    std::array<double, kNumTiers> rate_mb_ms_{0.0, 0.0};

    SlotMap<Container> containers_;
    std::vector<FunctionPools> pools_; //!< indexed by FunctionId
    std::array<EvictHeap, kNumTiers> evict_heaps_;
    /**
     * High-water mark of the priorities ever pushed per tier. Default
     * policies emit monotone priorities (last-used time), so a new
     * entry usually outranks everything pending and can sit at the
     * heap's tail without a sift -- std::push_heap would place it
     * there too, but only after a parent read that misses cache in a
     * multi-million-entry lazy heap.
     */
    std::array<double, kNumTiers> evict_high_water_;
    /**
     * Per-tier heap size that triggers the next compaction:
     * max(kEvictCompactFloor, 2 x the size the last one left). At
     * least half of it is pushed between two compactions, so each
     * costs O(1) amortized per push.
     */
    std::array<std::size_t, kNumTiers> evict_compact_at_;
    EvictHeap evict_spared_; //!< evictToFit scratch (exclude_fn entries)

    std::vector<std::uint32_t> live_per_fn_;
    /**
     * Per-slot stamp of the newest scheduled expiry, from a global
     * never-reused counter; zeroed whenever the occupant is acquired
     * or destroyed. A ContainerExpiry event carries its stamp, so the
     * stale check -- the common case by far, since every warm reuse
     * strands one pending expiry -- is one 8-byte read in a dense
     * array instead of a generation probe into the (much larger)
     * container arena.
     */
    std::vector<std::uint64_t> expiry_stamps_;
    std::uint64_t next_expiry_stamp_ = 0;
    std::uint64_t next_evict_seq_ = 0;
    std::uint64_t prewarm_failures_ = 0;
};

} // namespace iceb::sim

#endif // ICEB_SIM_CLUSTER_HH
