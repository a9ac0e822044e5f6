#include "sim/cluster.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/units.hh"

namespace iceb::sim
{

ClusterState::ClusterState(
    const ClusterConfig &config,
    const std::vector<workload::FunctionProfile> &profiles,
    EventQueue &events, MetricsCollector &metrics,
    const SimCapacityHints &hints)
    : config_(config), profiles_(profiles), events_(events),
      metrics_(metrics)
{
    pools_.resize(profiles_.size());
    live_per_fn_.assign(profiles_.size(), 0);
    for (int t = 0; t < kNumTiers; ++t) {
        const auto tier = static_cast<Tier>(t);
        const TierSpec &spec = config_.spec(tier);
        rate_mb_ms_[static_cast<std::size_t>(t)] =
            dollarsPerGbHourToMbMs(spec.dollars_per_gb_hour);
        for (std::size_t i = 0; i < spec.server_count; ++i) {
            Server server;
            server.id = static_cast<ServerId>(servers_.size());
            server.tier = tier;
            server.capacity_mb = spec.memory_per_server_mb;
            server.free_mb = spec.memory_per_server_mb;
            tier_servers_[static_cast<std::size_t>(t)].push_back(
                server.id);
            servers_.push_back(server);
            tier_free_[static_cast<std::size_t>(t)] +=
                spec.memory_per_server_mb;
        }
    }
    for (int t = 0; t < kNumTiers; ++t) {
        server_heaps_[static_cast<std::size_t>(t)].init(
            tier_servers_[static_cast<std::size_t>(t)], servers_,
            servers_.size());
    }

    containers_.reserve(hints.containers);
    expiry_stamps_.reserve(hints.containers);
    for (auto &heap : evict_heaps_)
        heap.reserve(hints.evict_entries);
    evict_high_water_.fill(-std::numeric_limits<double>::infinity());
    evict_compact_at_.fill(kEvictCompactFloor);
    evict_spared_.reserve(hints.evict_entries);
}

const workload::FunctionProfile &
ClusterState::profileOf(FunctionId fn) const
{
    ICEB_ASSERT(fn < profiles_.size(), "unknown function profile");
    return profiles_[fn];
}

double
ClusterState::rateMbMs(Tier tier) const
{
    return rate_mb_ms_[static_cast<std::size_t>(tierIndex(tier))];
}

ServerId
ClusterState::pickServer(Tier tier, MemoryMb memory_mb) const
{
    // Worst-fit: the server with the most free memory, which balances
    // load and leaves room for large functions elsewhere. The tier
    // heap's root is that server (ties towards the lowest id, same as
    // the old first-maximum scan).
    const ServerId sid =
        server_heaps_[static_cast<std::size_t>(tierIndex(tier))].top();
    if (sid == kInvalidServer || servers_[sid].free_mb < memory_mb)
        return kInvalidServer;
    return sid;
}

// ------------------------------------------------- intrusive pool lists

void
ClusterState::poolPushBack(PoolList &list, Container &c)
{
    const std::uint32_t slot = SlotMap<Container>::slotOf(c.id);
    c.pool_prev = list.tail;
    c.pool_next = kNullSlot;
    if (list.tail != kNullSlot)
        containers_.atSlot(list.tail).pool_next = slot;
    else
        list.head = slot;
    list.tail = slot;
    ++list.size;
}

void
ClusterState::poolUnlink(PoolList &list, Container &c)
{
    const std::uint32_t slot = SlotMap<Container>::slotOf(c.id);
    if (c.pool_prev != kNullSlot) {
        containers_.atSlot(c.pool_prev).pool_next = c.pool_next;
    } else {
        ICEB_ASSERT(list.head == slot, "container not in this pool");
        list.head = c.pool_next;
    }
    if (c.pool_next != kNullSlot) {
        containers_.atSlot(c.pool_next).pool_prev = c.pool_prev;
    } else {
        ICEB_ASSERT(list.tail == slot, "container not in this pool");
        list.tail = c.pool_prev;
    }
    c.pool_prev = kNullSlot;
    c.pool_next = kNullSlot;
    ICEB_ASSERT(list.size > 0, "pool size underflow");
    --list.size;
}

void
ClusterState::setupPushBack(SetupList &list, Container &c)
{
    poolPushBack(list, c);
    // Strict less-than keeps the earlier-inserted container on ties,
    // matching the old first-minimum scan.
    if (list.min_slot == kNullSlot ||
        c.ready_at < containers_.atSlot(list.min_slot).ready_at) {
        list.min_slot = SlotMap<Container>::slotOf(c.id);
    }
}

void
ClusterState::setupUnlink(SetupList &list, Container &c)
{
    const std::uint32_t slot = SlotMap<Container>::slotOf(c.id);
    poolUnlink(list, c);
    if (list.min_slot != slot)
        return;
    // The minimum left: rescan head-to-tail (insertion order, so the
    // strict < again favours the earliest-inserted of equal
    // ready_at). Setup pools are small -- a handful of in-flight
    // warm-ups per (function, tier) -- and ready_at never changes, so
    // this stays cheap and exactly mirrors the old scan's tie-break.
    list.min_slot = list.head;
    for (std::uint32_t s = list.head; s != kNullSlot;
         s = containers_.atSlot(s).pool_next) {
        if (containers_.atSlot(s).ready_at <
            containers_.atSlot(list.min_slot).ready_at) {
            list.min_slot = s;
        }
    }
}

// ----------------------------------------------------------- lifecycle

ContainerId
ClusterState::createContainer(FunctionId fn, Tier tier, ServerId server,
                              ContainerState state)
{
    const workload::FunctionProfile &profile = profileOf(fn);
    const auto t = static_cast<std::size_t>(tierIndex(tier));
    Server &host = servers_[server];
    ICEB_ASSERT(host.free_mb >= profile.memory_mb,
                "server has no room for container");
    host.free_mb -= profile.memory_mb;
    server_heaps_[t].update(server, servers_);
    tier_free_[t] -= profile.memory_mb;

    const ContainerId id = containers_.insert();
    const std::uint32_t slot = SlotMap<Container>::slotOf(id);
    if (slot >= expiry_stamps_.size())
        expiry_stamps_.resize(slot + 1, 0);
    else
        expiry_stamps_[slot] = 0;
    Container &c = containers_.at(id);
    c.id = id;
    c.fn = fn;
    c.server = server;
    c.tier = tier;
    c.state = state;
    c.memory_mb = profile.memory_mb;
    c.ready_at = now_ + profile.coldStartMs(tier);
    c.last_used = now_;
    ++live_per_fn_[fn];

    EventLoopStats &stats = metrics_.eventLoop();
    if (containers_.size() > stats.peak_live_containers)
        stats.peak_live_containers = containers_.size();
    return id;
}

void
ClusterState::scheduleExpiry(Container &c)
{
    const std::uint64_t stamp = ++next_expiry_stamp_;
    expiry_stamps_[SlotMap<Container>::slotOf(c.id)] = stamp;
    Event event;
    event.time = c.expiry;
    event.type = EventType::ContainerExpiry;
    event.container = c.id;
    event.token = stamp;
    events_.push(event);
}

void
ClusterState::pushEvictEntry(const Container &c, double priority)
{
    const auto t = static_cast<std::size_t>(tierIndex(c.tier));
    const std::uint32_t slot = SlotMap<Container>::slotOf(c.id);
    EvictEntry entry;
    entry.priority = priority;
    entry.stamp = expiry_stamps_[slot];
    entry.slot = slot;
    entry.seq = static_cast<std::uint32_t>(next_evict_seq_++);
    ICEB_ASSERT(entry.stamp != 0,
                "evict candidate pushed without a scheduled expiry");
    EvictHeap &heap = evict_heaps_[t];
    heap.push_back(entry);
    if (priority >= evict_high_water_[t]) {
        // Outranks (priority, then the fresh seq) everything ever
        // pushed, hence everything still pending: the tail slot
        // already satisfies the heap invariant, and std::pop_heap's
        // victim order is layout-independent because the comparator
        // is a strict total order.
        evict_high_water_[t] = priority;
    } else {
        std::push_heap(heap.begin(), heap.end(), EvictLater{});
    }

    EventLoopStats &stats = metrics_.eventLoop();
    if (heap.size() > stats.peak_evict_entries)
        stats.peak_evict_entries = heap.size();
    if (heap.size() >= evict_compact_at_[t])
        compactEvictHeap(t);
}

void
ClusterState::compactEvictHeap(std::size_t tier)
{
    // Dropping stale entries leaves the victim sequence unchanged: a
    // stale entry stays stale (stamps are never reused) and would
    // only ever be popped and skipped, and EvictLater is a strict
    // total order, so the heap's layout never decides which live
    // entry pops next. In place: no allocation.
    EvictHeap &heap = evict_heaps_[tier];
    const auto live_end = std::remove_if(
        heap.begin(), heap.end(), [this](const EvictEntry &entry) {
            return entry.stamp != expiry_stamps_[entry.slot];
        });
    metrics_.eventLoop().stale_evict_entries +=
        static_cast<std::uint64_t>(heap.end() - live_end);
    heap.erase(live_end, heap.end());
    std::make_heap(heap.begin(), heap.end(), EvictLater{});
    evict_compact_at_[tier] = std::max(kEvictCompactFloor, 2 * heap.size());
}

std::size_t
ClusterState::ensureWarm(FunctionId fn, Tier tier, std::size_t count,
                         TimeMs expiry)
{
    return ensureWarmImpl(fn, tier, count, expiry, nullptr);
}

std::size_t
ClusterState::ensureWarmEvicting(FunctionId fn, Tier tier,
                                 std::size_t count, TimeMs expiry,
                                 Policy &policy)
{
    return ensureWarmImpl(fn, tier, count, expiry, &policy);
}

std::size_t
ClusterState::ensureWarmImpl(FunctionId fn, Tier tier, std::size_t count,
                             TimeMs expiry, Policy *evict_with)
{
    ICEB_ASSERT(fn < pools_.size(), "ensureWarm for unknown function");
    FunctionPools &pools = pools_[fn];
    const auto t = static_cast<std::size_t>(tierIndex(tier));
    PoolList &idle = pools.idle[t];
    SetupList &setup = pools.setup[t];

    std::size_t provisioned = 0;

    // Renew existing instances, newest first (tail to head), up to the
    // target count.
    for (std::uint32_t s = idle.tail;
         s != kNullSlot && provisioned < count;
         s = containers_.atSlot(s).pool_prev) {
        Container &c = containers_.atSlot(s);
        if (expiry > c.expiry) {
            c.expiry = expiry;
            scheduleExpiry(c);
        }
        ++provisioned;
    }
    for (std::uint32_t s = setup.tail;
         s != kNullSlot && provisioned < count;
         s = containers_.atSlot(s).pool_prev) {
        Container &c = containers_.atSlot(s);
        if (expiry > c.expiry)
            c.expiry = expiry;
        ++provisioned;
    }

    // Create the shortfall from vacant memory (optionally evicting
    // lower-priority idle containers of other functions).
    const workload::FunctionProfile &profile = profileOf(fn);
    std::size_t created = 0;
    while (provisioned < count) {
        ServerId server = pickServer(tier, profile.memory_mb);
        if (server == kInvalidServer && evict_with &&
            evictToFit(tier, profile.memory_mb, *evict_with, fn)) {
            server = pickServer(tier, profile.memory_mb);
        }
        if (server == kInvalidServer)
            break;
        const ContainerId id =
            createContainer(fn, tier, server, ContainerState::Setup);
        Container &c = containers_.at(id);
        c.expiry = expiry;
        c.prewarmed_unused = true;
        setupPushBack(setup, c);

        Event ready;
        ready.time = c.ready_at;
        ready.type = EventType::PrewarmReady;
        ready.container = id;
        events_.push(ready);
        ++provisioned;
        ++created;
    }
    if (created > 0) {
        ICEB_TRACE(tsink_, obs::TraceKind::WarmupIssued, now_, fn, tier,
                   obs::ColdCause::None, created);
    }
    return provisioned;
}

void
ClusterState::schedulePrewarm(FunctionId fn, Tier tier, TimeMs start_time,
                              TimeMs expiry)
{
    ICEB_ASSERT(start_time >= now_, "prewarm scheduled in the past");
    Event event;
    event.time = start_time;
    event.type = EventType::PrewarmStart;
    event.fn = fn;
    event.tier = tier;
    event.expiry = expiry;
    events_.push(event);
}

MemoryMb
ClusterState::vacantMemoryMb(Tier tier) const
{
    return tier_free_[static_cast<std::size_t>(tierIndex(tier))];
}

MemoryMb
ClusterState::totalMemoryMb(Tier tier) const
{
    return config_.spec(tier).totalMemoryMb();
}

std::size_t
ClusterState::warmCount(FunctionId fn, Tier tier) const
{
    ICEB_ASSERT(fn < pools_.size(), "warmCount for unknown function");
    const auto t = static_cast<std::size_t>(tierIndex(tier));
    return static_cast<std::size_t>(pools_[fn].idle[t].size) +
        static_cast<std::size_t>(pools_[fn].setup[t].size);
}

std::optional<ClusterState::Acquisition>
ClusterState::acquireWarm(FunctionId fn, const std::array<Tier, 2> &order)
{
    FunctionPools &pools = pools_[fn];
    for (Tier tier : order) {
        PoolList &idle =
            pools.idle[static_cast<std::size_t>(tierIndex(tier))];
        if (idle.size == 0)
            continue;
        // LIFO: take the most recently idled container so older ones
        // drain out through expiry.
        Container &c = containers_.atSlot(idle.tail);
        poolUnlink(idle, c);
        ICEB_ASSERT(c.state == ContainerState::IdleWarm,
                    "idle pool out of sync");
        metrics_.recordKeepAlive(c.tier, fn, c.memory_mb,
                                 now_ - c.idle_since, true,
                                 rateMbMs(c.tier));
        if (c.prewarmed_unused) {
            ICEB_TRACE(tsink_, obs::TraceKind::WarmupConsumed, now_, fn,
                       c.tier, obs::ColdCause::None, 0);
        }
        c.state = ContainerState::Running;
        c.prewarmed_unused = false;
        c.last_used = now_;
        // Cancel any pending expiry.
        expiry_stamps_[SlotMap<Container>::slotOf(c.id)] = 0;
        return Acquisition{c.id, c.tier, now_, false};
    }
    return std::nullopt;
}

std::optional<ClusterState::Acquisition>
ClusterState::acquireSetup(FunctionId fn, const std::array<Tier, 2> &order)
{
    FunctionPools &pools = pools_[fn];
    for (Tier tier : order) {
        SetupList &setup =
            pools.setup[static_cast<std::size_t>(tierIndex(tier))];
        if (setup.size == 0)
            continue;
        // Pick the container closest to readiness (cached minimum).
        Container &c = containers_.atSlot(setup.min_slot);
        setupUnlink(setup, c);
        ICEB_ASSERT(c.state == ContainerState::Setup,
                    "setup pool out of sync");
        if (c.prewarmed_unused) {
            ICEB_TRACE(tsink_, obs::TraceKind::WarmupConsumed, now_, fn,
                       c.tier, obs::ColdCause::None, 0);
        }
        c.state = ContainerState::Running;
        c.prewarmed_unused = false;
        c.last_used = now_;
        expiry_stamps_[SlotMap<Container>::slotOf(c.id)] = 0;
        const bool still_cold = c.ready_at > now_;
        return Acquisition{c.id, c.tier, std::max(c.ready_at, now_),
                           still_cold};
    }
    return std::nullopt;
}

std::optional<ClusterState::Acquisition>
ClusterState::acquireCold(FunctionId fn, const std::array<Tier, 2> &order,
                          Policy &policy)
{
    const workload::FunctionProfile &profile = profileOf(fn);
    // First pass: vacant memory only; second pass: allow eviction.
    for (int pass = 0; pass < 2; ++pass) {
        for (Tier tier : order) {
            if (config_.spec(tier).server_count == 0)
                continue;
            if (pass == 1 &&
                !evictToFit(tier, profile.memory_mb, policy)) {
                continue;
            }
            const ServerId server = pickServer(tier, profile.memory_mb);
            if (server == kInvalidServer)
                continue;
            const ContainerId id = createContainer(
                fn, tier, server, ContainerState::Running);
            Container &c = containers_.at(id);
            c.prewarmed_unused = false;
            return Acquisition{id, tier, c.ready_at, true};
        }
    }
    return std::nullopt;
}

void
ClusterState::startExecution(ContainerId id, TimeMs exec_end)
{
    Container &c = containers_.at(id);
    ICEB_ASSERT(c.state == ContainerState::Running,
                "container not acquired for execution");
    (void)c;
    (void)exec_end; // completion is scheduled by the simulator
}

void
ClusterState::finishExecution(ContainerId id, TimeMs keep_alive_ms,
                              Policy &policy)
{
    Container &c = containers_.at(id);
    ICEB_ASSERT(c.state == ContainerState::Running,
                "finishExecution on non-running container");
    if (keep_alive_ms <= 0) {
        destroyContainer(c, false, &policy);
        return;
    }
    becomeIdle(c, now_ + keep_alive_ms, &policy);
}

void
ClusterState::becomeIdle(Container &c, TimeMs expiry, Policy *policy)
{
    c.state = ContainerState::IdleWarm;
    c.idle_since = now_;
    c.expiry = expiry;
    scheduleExpiry(c);
    poolPushBack(
        pools_[c.fn].idle[static_cast<std::size_t>(tierIndex(c.tier))],
        c);
    const double priority = policy
        ? policy->evictionPriority(c.fn, c.tier, c.last_used, now_)
        : static_cast<double>(c.last_used);
    pushEvictEntry(c, priority);
}

void
ClusterState::destroyContainer(Container &c, bool wasteful,
                               Policy *policy)
{
    const auto t = static_cast<std::size_t>(tierIndex(c.tier));
    if (c.state == ContainerState::IdleWarm) {
        poolUnlink(pools_[c.fn].idle[t], c);
        if (wasteful) {
            metrics_.recordKeepAlive(c.tier, c.fn, c.memory_mb,
                                     now_ - c.idle_since, false,
                                     rateMbMs(c.tier));
        }
    } else if (c.state == ContainerState::Setup) {
        setupUnlink(pools_[c.fn].setup[t], c);
    }
    if (wasteful && c.prewarmed_unused) {
        ICEB_TRACE(tsink_, obs::TraceKind::WarmupWasted, now_, c.fn,
                   c.tier, obs::ColdCause::None, 0);
        if (policy)
            policy->onWarmupWasted(c.fn, c.tier, now_);
    }

    Server &host = servers_[c.server];
    host.free_mb += c.memory_mb;
    ICEB_ASSERT(host.free_mb <= host.capacity_mb,
                "server memory over-freed");
    server_heaps_[t].update(c.server, servers_);
    tier_free_[t] += c.memory_mb;
    ICEB_ASSERT(live_per_fn_[c.fn] > 0, "live count underflow");
    --live_per_fn_[c.fn];
    expiry_stamps_[SlotMap<Container>::slotOf(c.id)] = 0;
    containers_.erase(c.id); // invalidates c
}

bool
ClusterState::evictToFit(Tier tier, MemoryMb memory_mb, Policy &policy,
                         FunctionId exclude_fn)
{
    EvictHeap &heap =
        evict_heaps_[static_cast<std::size_t>(tierIndex(tier))];
    EventLoopStats &stats = metrics_.eventLoop();
    // Scratch window for this call's spared entries; index-based so
    // re-entrant calls (none today) would still compose.
    const std::size_t spared_base = evict_spared_.size();
    bool fits = true;
    while (pickServer(tier, memory_mb) == kInvalidServer) {
        bool evicted = false;
        while (!heap.empty()) {
            std::pop_heap(heap.begin(), heap.end(), EvictLater{});
            const EvictEntry entry = heap.back();
            heap.pop_back();
            ++stats.eviction_victims_examined;
            if (entry.stamp != expiry_stamps_[entry.slot]) {
                ++stats.stale_evict_entries;
                continue; // acquired, destroyed, or re-idled since
            }
            Container *victim = &containers_.atSlot(entry.slot);
            ICEB_ASSERT(victim->state == ContainerState::IdleWarm,
                        "evict stamp out of sync");
            if (victim->fn == exclude_fn) {
                evict_spared_.push_back(entry);
                continue;
            }
            policy.onEviction(victim->fn, victim->tier, now_);
            ICEB_TRACE(tsink_, obs::TraceKind::Eviction, now_,
                       victim->fn, victim->tier, obs::ColdCause::None,
                       static_cast<std::uint64_t>(
                           now_ - victim->idle_since));
            destroyContainer(*victim, true, &policy);
            evicted = true;
            break;
        }
        if (!evicted) {
            fits = false;
            break;
        }
    }
    for (std::size_t i = spared_base; i < evict_spared_.size(); ++i) {
        heap.push_back(evict_spared_[i]);
        std::push_heap(heap.begin(), heap.end(), EvictLater{});
    }
    evict_spared_.resize(spared_base);
    return fits;
}

void
ClusterState::handlePrewarmStart(const Event &event, Policy &policy)
{
    const workload::FunctionProfile &profile = profileOf(event.fn);
    // Prefer the requested tier; fall back to the other one, then to
    // eviction, so a full cluster does not forfeit the warm-up.
    Tier tier = event.tier;
    ServerId server = pickServer(tier, profile.memory_mb);
    if (server == kInvalidServer) {
        tier = otherTier(tier);
        server = pickServer(tier, profile.memory_mb);
    }
    if (server == kInvalidServer &&
        evictToFit(event.tier, profile.memory_mb, policy, event.fn)) {
        tier = event.tier;
        server = pickServer(tier, profile.memory_mb);
    }
    if (server == kInvalidServer) {
        ++prewarm_failures_;
        return;
    }
    const ContainerId id = createContainer(event.fn, tier, server,
                                           ContainerState::Setup);
    Container &c = containers_.at(id);
    c.expiry = event.expiry;
    c.prewarmed_unused = true;
    setupPushBack(
        pools_[event.fn]
            .setup[static_cast<std::size_t>(tierIndex(tier))],
        c);

    Event ready;
    ready.time = c.ready_at;
    ready.type = EventType::PrewarmReady;
    ready.container = id;
    events_.push(ready);
    ICEB_TRACE(tsink_, obs::TraceKind::WarmupIssued, now_, event.fn,
               tier, obs::ColdCause::None, 1);
}

void
ClusterState::handlePrewarmReady(const Event &event, Policy &policy)
{
    Container *cp = containers_.find(event.container);
    if (cp == nullptr || cp->state != ContainerState::Setup)
        return; // attached or destroyed while in setup
    Container &c = *cp;
    if (c.expiry <= now_) {
        // Keep-alive lapsed during setup: destroy straight from the
        // setup pool. A zero-length idle period records nothing (the
        // collector ignores idle_ms <= 0) and the wasted-warmup
        // callback still fires inside destroyContainer, so this is
        // equivalent to -- and cheaper than -- the old push-into-idle
        // -then-destroy dance.
        destroyContainer(c, true, &policy);
        return;
    }
    setupUnlink(
        pools_[c.fn].setup[static_cast<std::size_t>(tierIndex(c.tier))],
        c);
    c.state = ContainerState::IdleWarm;
    c.idle_since = now_;
    scheduleExpiry(c);
    poolPushBack(
        pools_[c.fn].idle[static_cast<std::size_t>(tierIndex(c.tier))],
        c);
    pushEvictEntry(c, static_cast<double>(c.last_used));
}

void
ClusterState::handleContainerExpiry(const Event &event, Policy &policy)
{
    // Stamps are globally unique and zeroed on acquire/destroy, so a
    // match certifies the container is alive, idle, and that this is
    // its newest scheduled expiry -- without touching the arena.
    const std::uint32_t slot =
        SlotMap<Container>::slotOf(event.container);
    if (slot >= expiry_stamps_.size() ||
        expiry_stamps_[slot] != event.token) {
        ++metrics_.eventLoop().stale_expiry_events;
        return; // renewed, in use, or already gone
    }
    Container &c = containers_.atSlot(slot);
    ICEB_ASSERT(c.id == event.container &&
                    c.state == ContainerState::IdleWarm,
                "expiry stamp out of sync");
    ICEB_TRACE(tsink_, obs::TraceKind::Expiry, now_, c.fn, c.tier,
               obs::ColdCause::None,
               static_cast<std::uint64_t>(now_ - c.idle_since));
    destroyContainer(c, true, &policy);
}

const Container &
ClusterState::container(ContainerId id) const
{
    return containers_.at(id);
}

void
ClusterState::sampleOccupancy(
    std::array<std::int64_t, kNumTiers> &idle_warm,
    std::array<std::int64_t, kNumTiers> &in_setup) const
{
    idle_warm.fill(0);
    in_setup.fill(0);
    for (const FunctionPools &pools : pools_) {
        for (std::size_t t = 0; t < kNumTiers; ++t) {
            idle_warm[t] += pools.idle[t].size;
            in_setup[t] += pools.setup[t].size;
        }
    }
}

} // namespace iceb::sim
