/**
 * @file
 * Tests for the container lifecycle and memory accounting inside
 * ClusterState: warm pools, setup attach, eviction order, expiry and
 * keep-alive cost attribution.
 */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "policies/openwhisk_policy.hh"
#include "sim/cluster.hh"

namespace
{

using namespace iceb;
using namespace iceb::sim;

/** Two tiny servers (one per tier) for controlled pressure. */
ClusterConfig
tinyCluster(MemoryMb high_mb = 1024, MemoryMb low_mb = 1024)
{
    ClusterConfig config = defaultHeterogeneousCluster();
    config.spec(Tier::HighEnd).server_count = 1;
    config.spec(Tier::HighEnd).memory_per_server_mb = high_mb;
    config.spec(Tier::LowEnd).server_count = 1;
    config.spec(Tier::LowEnd).memory_per_server_mb = low_mb;
    return config;
}

workload::FunctionProfile
simpleProfile(MemoryMb mem, TimeMs cst = 1000, TimeMs exec = 2000)
{
    workload::FunctionProfile p;
    p.name = "p";
    p.memory_mb = mem;
    p.cold_start_ms = {cst, cst};
    p.exec_ms = {exec, exec * 2};
    return p;
}

class ClusterStateTest : public ::testing::Test
{
  protected:
    ClusterStateTest()
        : config_(tinyCluster()),
          profiles_({simpleProfile(256), simpleProfile(512)}),
          metrics_(profiles_.size()),
          cluster_(config_, profiles_, events_, metrics_)
    {
        cluster_.setNow(0);
    }

    ClusterConfig config_;
    std::vector<workload::FunctionProfile> profiles_;
    EventQueue events_;
    MetricsCollector metrics_;
    ClusterState cluster_;
    policies::OpenWhiskPolicy policy_;
    const std::array<Tier, 2> order_{Tier::HighEnd, Tier::LowEnd};
};

TEST_F(ClusterStateTest, EnsureWarmAllocatesMemoryAndSchedulesReady)
{
    const std::size_t placed = cluster_.ensureWarm(0, Tier::HighEnd, 2,
                                                   120'000);
    EXPECT_EQ(placed, 2u);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 1024 - 512);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 2u);
    EXPECT_EQ(cluster_.liveCount(0), 2u);
    // Two PrewarmReady events scheduled at the cold-start horizon.
    EXPECT_EQ(events_.size(), 2u);
    EXPECT_EQ(*events_.peekTime(), 1000);
}

TEST_F(ClusterStateTest, EnsureWarmCountsExistingInstances)
{
    cluster_.ensureWarm(0, Tier::HighEnd, 2, 120'000);
    const std::size_t placed = cluster_.ensureWarm(0, Tier::HighEnd, 3,
                                                   150'000);
    EXPECT_EQ(placed, 3u); // 2 existing renewed + 1 created
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 3u);
}

TEST_F(ClusterStateTest, EnsureWarmStopsAtVacantMemory)
{
    // 256 MB each into a 1024 MB server: only 4 fit.
    const std::size_t placed = cluster_.ensureWarm(0, Tier::HighEnd, 9,
                                                   120'000);
    EXPECT_EQ(placed, 4u);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 0);
}

TEST_F(ClusterStateTest, AcquireWarmNeedsReadyContainer)
{
    cluster_.ensureWarm(0, Tier::HighEnd, 1, 120'000);
    // Still in setup: no idle-warm container yet.
    EXPECT_FALSE(cluster_.acquireWarm(0, order_).has_value());

    // Process the PrewarmReady event.
    auto ready = events_.pop();
    ASSERT_TRUE(ready.has_value());
    cluster_.setNow(ready->time);
    cluster_.handlePrewarmReady(*ready, policy_);

    auto acq = cluster_.acquireWarm(0, order_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_FALSE(acq->cold);
    EXPECT_EQ(acq->tier, Tier::HighEnd);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 0u);
}

TEST_F(ClusterStateTest, AcquireSetupChargesRemainingColdStart)
{
    cluster_.ensureWarm(0, Tier::HighEnd, 1, 120'000);
    cluster_.setNow(400); // setup completes at 1000
    auto acq = cluster_.acquireSetup(0, order_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_TRUE(acq->cold);
    EXPECT_EQ(acq->ready_at, 1000);
}

TEST_F(ClusterStateTest, AcquireColdPrefersTierOrder)
{
    auto acq = cluster_.acquireCold(0, {Tier::LowEnd, Tier::HighEnd},
                                    policy_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_EQ(acq->tier, Tier::LowEnd);
    EXPECT_TRUE(acq->cold);
    EXPECT_EQ(acq->ready_at, 1000);
}

TEST_F(ClusterStateTest, AcquireColdSpillsWhenPrimaryFull)
{
    cluster_.ensureWarm(1, Tier::HighEnd, 2, 120'000); // 1024 MB: full
    auto acq = cluster_.acquireCold(1, order_, policy_);
    ASSERT_TRUE(acq.has_value());
    // High-end is full of fn 1's own warm instances (never evicted
    // for itself); the cold start spills to low-end.
    EXPECT_EQ(acq->tier, Tier::LowEnd);
}

TEST_F(ClusterStateTest, ColdPrefersVacantTierOverEviction)
{
    // High-end full of fn 0 idles, low-end vacant: the cold start
    // spills to low-end rather than evicting.
    cluster_.ensureWarm(0, Tier::HighEnd, 4, 120'000);
    cluster_.setNow(2000);
    auto acq = cluster_.acquireCold(1, order_, policy_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_EQ(acq->tier, Tier::LowEnd);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 4u);
}

TEST_F(ClusterStateTest, ColdEvictsIdleLruWhenBothTiersFull)
{
    // Fill both tiers with fn 0 idles, then cold-start fn 1.
    cluster_.ensureWarm(0, Tier::HighEnd, 4, 120'000);
    cluster_.ensureWarm(0, Tier::LowEnd, 4, 120'000);
    while (auto event = events_.pop()) {
        cluster_.setNow(event->time);
        if (event->type == EventType::PrewarmReady)
            cluster_.handlePrewarmReady(*event, policy_);
    }
    cluster_.setNow(2000);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 0);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::LowEnd), 0);
    auto acq = cluster_.acquireCold(1, order_, policy_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_EQ(acq->tier, Tier::HighEnd);
    // Two 256 MB idles evicted for the 512 MB container.
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 2u);
    // The evicted idle periods were wasteful keep-alive.
    const SimulationMetrics m = metrics_.take();
    EXPECT_GT(m.tierKeepAlive(Tier::HighEnd).wasteful_cost, 0.0);
}

TEST_F(ClusterStateTest, FinishExecutionKeepAliveThenExpiry)
{
    auto acq = cluster_.acquireCold(0, order_, policy_);
    ASSERT_TRUE(acq.has_value());
    cluster_.setNow(3000);
    cluster_.finishExecution(acq->id, 60'000, policy_);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 1u);

    // Find the expiry event and fire it.
    std::optional<Event> expiry;
    while (auto event = events_.pop()) {
        if (event->type == EventType::ContainerExpiry)
            expiry = event;
    }
    ASSERT_TRUE(expiry.has_value());
    EXPECT_EQ(expiry->time, 63'000);
    cluster_.setNow(expiry->time);
    cluster_.handleContainerExpiry(*expiry, policy_);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 0u);
    EXPECT_EQ(cluster_.liveCount(0), 0u);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 1024);

    // The 60 s idle period was wasteful keep-alive.
    const SimulationMetrics m = metrics_.take();
    EXPECT_GT(m.tierKeepAlive(Tier::HighEnd).wasteful_cost, 0.0);
    EXPECT_DOUBLE_EQ(m.tierKeepAlive(Tier::HighEnd).successful_cost,
                     0.0);
}

TEST_F(ClusterStateTest, WarmHitRecordsSuccessfulKeepAlive)
{
    auto acq = cluster_.acquireCold(0, order_, policy_);
    cluster_.setNow(3000);
    cluster_.finishExecution(acq->id, 60'000, policy_);
    cluster_.setNow(33'000); // idle for 30 s
    auto warm = cluster_.acquireWarm(0, order_);
    ASSERT_TRUE(warm.has_value());

    const SimulationMetrics m = metrics_.take();
    const double rate =
        dollarsPerGbHourToMbMs(
            config_.spec(Tier::HighEnd).dollars_per_gb_hour);
    EXPECT_NEAR(m.tierKeepAlive(Tier::HighEnd).successful_cost,
                keepAliveCost(256, 30'000, rate), 1e-12);
    EXPECT_DOUBLE_EQ(m.tierKeepAlive(Tier::HighEnd).wasteful_cost, 0.0);
}

TEST_F(ClusterStateTest, ZeroKeepAliveDestroysImmediately)
{
    auto acq = cluster_.acquireCold(0, order_, policy_);
    cluster_.setNow(3000);
    cluster_.finishExecution(acq->id, 0, policy_);
    EXPECT_EQ(cluster_.liveCount(0), 0u);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 1024);
    const SimulationMetrics m = metrics_.take();
    EXPECT_DOUBLE_EQ(m.totalKeepAliveCost(), 0.0);
}

TEST_F(ClusterStateTest, RenewalCancelsStaleExpiry)
{
    cluster_.ensureWarm(0, Tier::HighEnd, 1, 10'000);
    auto ready = events_.pop();
    cluster_.setNow(ready->time);
    cluster_.handlePrewarmReady(*ready, policy_);

    // Renew with a later expiry; the first expiry event is now stale.
    cluster_.ensureWarm(0, Tier::HighEnd, 1, 50'000);
    std::vector<Event> expiries;
    while (auto event = events_.pop())
        if (event->type == EventType::ContainerExpiry)
            expiries.push_back(*event);
    ASSERT_EQ(expiries.size(), 2u);

    cluster_.setNow(10'000);
    cluster_.handleContainerExpiry(expiries[0], policy_);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 1u); // survived
    cluster_.setNow(50'000);
    cluster_.handleContainerExpiry(expiries[1], policy_);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 0u);
}

TEST_F(ClusterStateTest, ScheduledPrewarmFallsBackAcrossTiers)
{
    // Fill high-end completely with fn 1.
    cluster_.ensureWarm(1, Tier::HighEnd, 2, 200'000);
    Event start;
    start.type = EventType::PrewarmStart;
    start.fn = 0;
    start.tier = Tier::HighEnd;
    start.expiry = 100'000;
    start.time = 0;
    cluster_.handlePrewarmStart(start, policy_);
    // Fell back to the low-end tier instead of dropping.
    EXPECT_EQ(cluster_.warmCount(0, Tier::LowEnd), 1u);
    EXPECT_EQ(cluster_.prewarmFailures(), 0u);
}

TEST_F(ClusterStateTest, EnsureWarmEvictingPreemptsOtherFunctions)
{
    cluster_.ensureWarm(0, Tier::HighEnd, 4, 200'000); // fill tier
    while (auto event = events_.pop()) {
        cluster_.setNow(event->time);
        if (event->type == EventType::PrewarmReady)
            cluster_.handlePrewarmReady(*event, policy_);
    }
    cluster_.setNow(5000);
    const std::size_t placed = cluster_.ensureWarmEvicting(
        1, Tier::HighEnd, 1, 200'000, policy_);
    EXPECT_EQ(placed, 1u);
    EXPECT_LT(cluster_.warmCount(0, Tier::HighEnd), 4u);
}

TEST_F(ClusterStateTest, EvictionSkipsEntriesWithStaleTokens)
{
    // Fill both tiers with fn 0 idles, then renew every keep-alive:
    // each renewal reschedules expiry with a bumped token, so every
    // original evict-heap entry goes stale. A renewed container is
    // unevictable until it idles again.
    cluster_.ensureWarm(0, Tier::HighEnd, 4, 10'000);
    cluster_.ensureWarm(0, Tier::LowEnd, 4, 10'000);
    while (auto event = events_.pop()) {
        cluster_.setNow(event->time);
        if (event->type == EventType::PrewarmReady)
            cluster_.handlePrewarmReady(*event, policy_);
    }
    cluster_.setNow(2000);
    cluster_.ensureWarm(0, Tier::HighEnd, 4, 50'000);
    cluster_.ensureWarm(0, Tier::LowEnd, 4, 50'000);

    auto acq = cluster_.acquireCold(1, order_, policy_);
    EXPECT_FALSE(acq.has_value()); // every heap entry was stale
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 4u);
    EXPECT_EQ(cluster_.warmCount(0, Tier::LowEnd), 4u);

    const SimulationMetrics m = metrics_.take();
    EXPECT_EQ(m.event_loop.stale_evict_entries, 8u);
    EXPECT_EQ(m.event_loop.eviction_victims_examined, 8u);
}

TEST_F(ClusterStateTest, EvictHeapStaysBoundedUnderWarmReuse)
{
    // One fn 0 container reused 10,000 times: every acquireWarm
    // strands its evict-heap entry and the next idle spell pushes a
    // fresh one. Without compaction the high-end heap would hold all
    // 10,001 entries; it compacts each time it reaches 4,096.
    auto first = cluster_.acquireCold(0, order_, policy_);
    ASSERT_TRUE(first.has_value());
    const ContainerId reused = first->id;
    const TimeMs keep_alive = 1'000'000'000;
    TimeMs now = 1000;
    cluster_.setNow(now);
    cluster_.finishExecution(reused, keep_alive, policy_);
    for (int cycle = 0; cycle < 10'000; ++cycle) {
        cluster_.setNow(now += 10);
        auto warm = cluster_.acquireWarm(0, order_);
        ASSERT_TRUE(warm.has_value());
        ASSERT_EQ(warm->id, reused);
        cluster_.finishExecution(reused, keep_alive, policy_);
    }
    const EventLoopStats &stats = metrics_.eventLoop();
    EXPECT_LE(stats.peak_evict_entries, 8192u);
    // Two compactions, each dropping all but the one live entry; no
    // entry has been popped yet.
    EXPECT_EQ(stats.stale_evict_entries, 2u * (4096 - 1));
    EXPECT_EQ(stats.eviction_victims_examined, 0u);

    // Fill the rest of the high-end tier with idles that outrank the
    // reused container (they were used later).
    cluster_.setNow(now += 10);
    auto mid = cluster_.acquireCold(1, order_, policy_);
    ASSERT_TRUE(mid.has_value());
    ASSERT_EQ(mid->tier, Tier::HighEnd);
    cluster_.setNow(now += 10);
    auto last = cluster_.acquireCold(0, order_, policy_);
    ASSERT_TRUE(last.has_value());
    ASSERT_EQ(last->tier, Tier::HighEnd);
    cluster_.setNow(now += 2000);
    cluster_.finishExecution(mid->id, keep_alive, policy_);
    cluster_.finishExecution(last->id, keep_alive, policy_);
    ASSERT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 0);

    // A 512 MB cold start confined to the full high-end tier skips
    // the stale entries left since the last compaction, then evicts
    // the two lowest-priority live candidates in order: the reused
    // container (256 MB, not yet enough) and then fn 1's.
    auto cold = cluster_.acquireCold(1, {Tier::HighEnd, Tier::HighEnd},
                                     policy_);
    ASSERT_TRUE(cold.has_value());
    EXPECT_EQ(cold->tier, Tier::HighEnd);
    EXPECT_EQ(cluster_.liveCount(0), 1u);
    EXPECT_EQ(cluster_.container(last->id).state,
              ContainerState::IdleWarm);
    EXPECT_EQ(cluster_.warmCount(1, Tier::HighEnd), 0u);
    // Every superseded spell was counted stale exactly once, whether
    // compaction dropped it or the eviction popped it.
    EXPECT_EQ(stats.stale_evict_entries, 10'000u);
    EXPECT_EQ(stats.eviction_victims_examined,
              10'000u - 2u * (4096 - 1) + 2u);
}

TEST_F(ClusterStateTest, EvictionSparesExcludedFunctionAndRestoresIt)
{
    // High-end: two fn 0 idles (256 MB each, lowest priority) plus one
    // fn 1 idle (512 MB); low-end full of fn 1 so nothing falls back.
    cluster_.ensureWarm(0, Tier::HighEnd, 2, 200'000);
    while (auto event = events_.pop()) {
        cluster_.setNow(event->time);
        if (event->type == EventType::PrewarmReady)
            cluster_.handlePrewarmReady(*event, policy_);
    }
    cluster_.setNow(2000);
    cluster_.ensureWarm(1, Tier::HighEnd, 1, 200'000);
    cluster_.ensureWarm(1, Tier::LowEnd, 2, 200'000);
    while (auto event = events_.pop()) {
        cluster_.setNow(event->time);
        if (event->type == EventType::PrewarmReady)
            cluster_.handlePrewarmReady(*event, policy_);
    }
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::HighEnd), 0);
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::LowEnd), 0);

    // A scheduled prewarm for fn 0 must not evict fn 0's own idles:
    // the two lowest-priority entries are spared and fn 1's goes.
    Event start;
    start.type = EventType::PrewarmStart;
    start.fn = 0;
    start.tier = Tier::HighEnd;
    start.expiry = 300'000;
    start.time = cluster_.now();
    cluster_.handlePrewarmStart(start, policy_);
    EXPECT_EQ(cluster_.prewarmFailures(), 0u);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 3u); // 2 idle + setup
    EXPECT_EQ(cluster_.warmCount(1, Tier::HighEnd), 0u);

    // The spared entries went back on the heap: a later cold start for
    // fn 1 can still evict those fn 0 idles.
    // 256 MB is already free (512 evicted - 256 prewarmed), so one
    // restored fn 0 entry covers the remaining 256 MB.
    auto acq = cluster_.acquireCold(1, order_, policy_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_EQ(acq->tier, Tier::HighEnd);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 2u); // idle + setup
}

TEST_F(ClusterStateTest, FailedEvictionRestoresSparedEntries)
{
    // High-end holds only fn 0 idles; low-end is full of *running*
    // fn 1 containers (running containers are never evicted).
    cluster_.ensureWarm(0, Tier::HighEnd, 4, 200'000);
    while (auto event = events_.pop()) {
        cluster_.setNow(event->time);
        if (event->type == EventType::PrewarmReady)
            cluster_.handlePrewarmReady(*event, policy_);
    }
    cluster_.setNow(2000);
    ASSERT_TRUE(cluster_.acquireCold(1, order_, policy_).has_value());
    ASSERT_TRUE(cluster_.acquireCold(1, order_, policy_).has_value());
    EXPECT_EQ(cluster_.vacantMemoryMb(Tier::LowEnd), 0);

    // Prewarming fn 0 spares all four of its own entries, finds no
    // other victim, and must fail -- leaving the heap intact.
    Event start;
    start.type = EventType::PrewarmStart;
    start.fn = 0;
    start.tier = Tier::HighEnd;
    start.expiry = 300'000;
    start.time = cluster_.now();
    cluster_.handlePrewarmStart(start, policy_);
    EXPECT_EQ(cluster_.prewarmFailures(), 1u);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 4u);

    // The restored entries still serve a different function's cold
    // start: two 256 MB idles are evicted for fn 1's 512 MB.
    auto acq = cluster_.acquireCold(1, order_, policy_);
    ASSERT_TRUE(acq.has_value());
    EXPECT_EQ(acq->tier, Tier::HighEnd);
    EXPECT_EQ(cluster_.warmCount(0, Tier::HighEnd), 2u);
}

} // namespace
