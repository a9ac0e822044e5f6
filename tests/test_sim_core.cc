/**
 * @file
 * Tests for the simulator's building blocks: event queue, cluster
 * configurations (budget-constant sweep) and metric accounting.
 */

#include <gtest/gtest.h>

#include "sim/cluster_config.hh"
#include "sim/event_queue.hh"
#include "sim/metrics.hh"

namespace
{

using namespace iceb;
using namespace iceb::sim;

// ----------------------------------------------------------- EventQueue

TEST(EventQueueTest, PopsInTimeOrder)
{
    EventQueue queue;
    Event e;
    e.type = EventType::IntervalTick;
    e.time = 30;
    queue.push(e);
    e.time = 10;
    queue.push(e);
    e.time = 20;
    queue.push(e);

    EXPECT_EQ(queue.pop()->time, 10);
    EXPECT_EQ(queue.pop()->time, 20);
    EXPECT_EQ(queue.pop()->time, 30);
    EXPECT_FALSE(queue.pop().has_value());
}

TEST(EventQueueTest, TiesBreakByInsertionOrder)
{
    EventQueue queue;
    Event e;
    e.time = 5;
    e.type = EventType::InvocationArrival;
    e.fn = 1;
    queue.push(e);
    e.fn = 2;
    queue.push(e);
    e.fn = 3;
    queue.push(e);
    EXPECT_EQ(queue.pop()->fn, 1u);
    EXPECT_EQ(queue.pop()->fn, 2u);
    EXPECT_EQ(queue.pop()->fn, 3u);
}

TEST(EventQueueTest, PayloadsRoundTripPerType)
{
    EventQueue queue;

    Event expiry;
    expiry.time = 3;
    expiry.type = EventType::ContainerExpiry;
    expiry.container = 0x1'0000'0002ull;
    expiry.token = 42;
    queue.push(expiry);

    Event prewarm;
    prewarm.time = 1;
    prewarm.type = EventType::PrewarmStart;
    prewarm.fn = 7;
    prewarm.tier = Tier::LowEnd;
    prewarm.expiry = 9000;
    queue.push(prewarm);

    Event done;
    done.time = 2;
    done.type = EventType::ExecutionComplete;
    done.container = 0x2'0000'0005ull;
    done.fn = 11;
    queue.push(done);

    auto first = queue.pop();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->type, EventType::PrewarmStart);
    EXPECT_EQ(first->fn, 7u);
    EXPECT_EQ(first->tier, Tier::LowEnd);
    EXPECT_EQ(first->expiry, 9000);

    auto second = queue.pop();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->type, EventType::ExecutionComplete);
    EXPECT_EQ(second->container, 0x2'0000'0005ull);
    EXPECT_EQ(second->fn, 11u);

    auto third = queue.pop();
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->type, EventType::ContainerExpiry);
    EXPECT_EQ(third->container, 0x1'0000'0002ull);
    EXPECT_EQ(third->token, 42u);

    EXPECT_FALSE(queue.pop().has_value());
}

TEST(EventQueueTest, ReservedSeqBlockOrdersBetweenPushes)
{
    EventQueue queue;
    Event before;
    before.time = 10;
    before.type = EventType::InvocationArrival;
    before.fn = 1;
    queue.push(before); // seq 0

    const std::uint64_t base = queue.reserveSeqs(3); // seqs 1..3
    EXPECT_EQ(base, 1u);

    Event after;
    after.time = 10;
    after.type = EventType::InvocationArrival;
    after.fn = 2;
    queue.push(after); // seq 4

    // The heap front's key lets a caller interleave externally-held
    // work carrying the reserved seqs.
    auto key = queue.peekKey();
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->time, 10);
    EXPECT_EQ(key->seq, 0u);

    EXPECT_EQ(queue.pop()->fn, 1u);
    key = queue.peekKey();
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->seq, 4u); // reserved seqs 1..3 were never pushed
    EXPECT_EQ(queue.pop()->fn, 2u);
}

TEST(EventQueueTest, ManyEventsPopSortedAndRecyclePayloads)
{
    EventQueue queue;
    queue.reserve(64);
    // Deterministic scramble of times; repeated fill/drain cycles
    // exercise payload recycling through the free list.
    for (int cycle = 0; cycle < 3; ++cycle) {
        for (int i = 0; i < 50; ++i) {
            Event e;
            e.time = (i * 37) % 50;
            e.type = EventType::InvocationArrival;
            e.fn = static_cast<FunctionId>(i);
            queue.push(e);
        }
        TimeMs last = -1;
        std::size_t popped = 0;
        while (auto e = queue.pop()) {
            EXPECT_GE(e->time, last);
            last = e->time;
            ++popped;
        }
        EXPECT_EQ(popped, 50u);
    }
    EXPECT_GE(queue.peakSize(), 50u);
}

TEST(EventQueueTest, PeekDoesNotPop)
{
    EventQueue queue;
    Event e;
    e.time = 7;
    queue.push(e);
    EXPECT_EQ(queue.peekTime(), 7);
    EXPECT_EQ(queue.size(), 1u);
    EXPECT_FALSE(queue.empty());
    queue.pop();
    EXPECT_TRUE(queue.empty());
    EXPECT_FALSE(queue.peekTime().has_value());
}

// -------------------------------------------------------- ClusterConfig

TEST(ClusterConfigTest, DefaultClusterMatchesPaper)
{
    const ClusterConfig config = defaultHeterogeneousCluster();
    EXPECT_EQ(config.spec(Tier::HighEnd).server_count, 10u);
    EXPECT_EQ(config.spec(Tier::LowEnd).server_count, 18u);
    EXPECT_NEAR(config.spec(Tier::HighEnd).dollars_per_gb_hour, 0.01475,
                1e-9);
    EXPECT_NEAR(config.spec(Tier::LowEnd).dollars_per_gb_hour, 0.0084,
                1e-9);
    EXPECT_FALSE(config.homogeneous());
    // Equal capital split within rounding of whole servers.
    const double high_capital = 10.0 * 1.75;
    EXPECT_NEAR(high_capital, 18.0, 0.5);
}

TEST(ClusterConfigTest, LowEndGivesMoreMemoryPerDollar)
{
    // The heterogeneity argument requires cheap servers to carry more
    // aggregate memory per capital unit.
    const ClusterConfig config = defaultHeterogeneousCluster();
    const TierSpec &high = config.spec(Tier::HighEnd);
    const TierSpec &low = config.spec(Tier::LowEnd);
    const double high_mb_per_cost =
        static_cast<double>(high.memory_per_server_mb) /
        high.capital_cost;
    const double low_mb_per_cost =
        static_cast<double>(low.memory_per_server_mb) / low.capital_cost;
    EXPECT_GT(low_mb_per_cost, high_mb_per_cost);
}

TEST(ClusterConfigTest, HomogeneousEndpoints)
{
    EXPECT_TRUE(homogeneousHighEndCluster().homogeneous());
    EXPECT_TRUE(homogeneousLowEndCluster().homogeneous());
    EXPECT_EQ(homogeneousHighEndCluster().totalServers(), 20u);
    EXPECT_EQ(homogeneousLowEndCluster().totalServers(), 35u);
}

TEST(ClusterConfigTest, SweepHasElevenBudgetConstantConfigs)
{
    const std::vector<ClusterConfig> sweep = budgetConstantSweep();
    ASSERT_EQ(sweep.size(), 11u);
    // Endpoints match the paper's homogeneous cases.
    EXPECT_EQ(sweep.front().spec(Tier::HighEnd).server_count, 20u);
    EXPECT_EQ(sweep.front().spec(Tier::LowEnd).server_count, 0u);
    EXPECT_EQ(sweep.back().spec(Tier::HighEnd).server_count, 0u);
    EXPECT_EQ(sweep.back().spec(Tier::LowEnd).server_count, 35u);
    // Capital cost constant to within one low-end server.
    const double reference = sweep.front().totalCapitalCost();
    for (const auto &config : sweep)
        EXPECT_NEAR(config.totalCapitalCost(), reference, 1.0)
            << config.name;
    // The default 10H+18L appears in the sweep.
    bool found_default = false;
    for (const auto &config : sweep)
        if (config.spec(Tier::HighEnd).server_count == 10 &&
            config.spec(Tier::LowEnd).server_count == 18)
            found_default = true;
    EXPECT_TRUE(found_default);
}

TEST(ClusterConfigTest, CostRatioClusters)
{
    for (double ratio : {1.23, 1.5, 1.8, 2.4}) {
        const ClusterConfig config = clusterWithCostRatio(ratio);
        const TierSpec &high = config.spec(Tier::HighEnd);
        const TierSpec &low = config.spec(Tier::LowEnd);
        EXPECT_NEAR(high.dollars_per_gb_hour / low.dollars_per_gb_hour,
                    ratio, 1e-9);
        EXPECT_GT(high.server_count, 0u);
        EXPECT_GT(low.server_count, 0u);
        // Cheaper high-end servers -> more of them at equal budget.
        if (ratio < 1.5) {
            EXPECT_GT(high.server_count, 10u);
        }
    }
}

TEST(ClusterConfigTest, TotalMemoryAggregation)
{
    const ClusterConfig config = defaultHeterogeneousCluster();
    const MemoryMb expected =
        10 * config.spec(Tier::HighEnd).memory_per_server_mb +
        18 * config.spec(Tier::LowEnd).memory_per_server_mb;
    EXPECT_EQ(config.totalMemoryMb(), expected);
}

// --------------------------------------------------------------- Metrics

TEST(MetricsTest, InvocationAccounting)
{
    MetricsCollector collector(2);
    InvocationOutcome outcome;
    outcome.fn = 0;
    outcome.tier = Tier::HighEnd;
    outcome.cold = true;
    outcome.wait_ms = 100;
    outcome.cold_start_ms = 900;
    outcome.exec_ms = 1000;
    outcome.overhead_ms = 30;
    collector.recordInvocation(outcome);

    outcome.fn = 1;
    outcome.cold = false;
    outcome.tier = Tier::LowEnd;
    outcome.wait_ms = 0;
    outcome.cold_start_ms = 0;
    outcome.exec_ms = 500;
    outcome.overhead_ms = 0;
    collector.recordInvocation(outcome);

    const SimulationMetrics m = collector.take();
    EXPECT_EQ(m.invocations, 2u);
    EXPECT_EQ(m.cold_starts, 1u);
    EXPECT_EQ(m.warm_starts, 1u);
    EXPECT_DOUBLE_EQ(m.meanServiceMs(), (2030.0 + 500.0) / 2.0);
    EXPECT_DOUBLE_EQ(m.meanWaitMs(), 50.0);
    EXPECT_DOUBLE_EQ(m.warmStartFraction(), 0.5);
    ASSERT_EQ(m.service_times_high_ms.size(), 1u);
    ASSERT_EQ(m.service_times_low_ms.size(), 1u);
    EXPECT_FLOAT_EQ(m.service_times_high_ms[0], 2030.0f);
    EXPECT_EQ(m.per_function[0].cold_starts, 1u);
    EXPECT_EQ(m.per_function[1].warm_starts, 1u);
}

TEST(MetricsTest, KeepAliveSplitsSuccessfulAndWasteful)
{
    MetricsCollector collector(1);
    const double rate = 1e-9;
    collector.recordKeepAlive(Tier::HighEnd, 0, 1000, 60'000, true,
                              rate);
    collector.recordKeepAlive(Tier::HighEnd, 0, 1000, 30'000, false,
                              rate);
    collector.recordKeepAlive(Tier::LowEnd, 0, 500, 10'000, false, rate);
    const SimulationMetrics m = collector.take();

    const TierKeepAlive &high = m.tierKeepAlive(Tier::HighEnd);
    EXPECT_NEAR(high.successful_cost, 1000.0 * 60'000 * rate, 1e-15);
    EXPECT_NEAR(high.wasteful_cost, 1000.0 * 30'000 * rate, 1e-15);
    EXPECT_NEAR(high.wasted_mb_ms, 1000.0 * 30'000, 1e-9);
    const TierKeepAlive &low = m.tierKeepAlive(Tier::LowEnd);
    EXPECT_NEAR(low.wasteful_cost, 500.0 * 10'000 * rate, 1e-15);
    EXPECT_NEAR(m.totalKeepAliveCost(),
                high.totalCost() + low.totalCost(), 1e-15);
    EXPECT_NEAR(m.per_function[0].keep_alive_cost,
                m.totalKeepAliveCost(), 1e-15);
}

TEST(MetricsTest, ZeroIdleIsIgnored)
{
    MetricsCollector collector(1);
    collector.recordKeepAlive(Tier::HighEnd, 0, 1000, 0, false, 1.0);
    const SimulationMetrics m = collector.take();
    EXPECT_DOUBLE_EQ(m.totalKeepAliveCost(), 0.0);
}

TEST(MetricsTest, ColdCauseCounters)
{
    MetricsCollector collector(1);
    collector.recordColdCause(true, true);
    collector.recordColdCause(false, true);
    collector.recordColdCause(false, false);
    collector.recordColdCause(false, false);
    const SimulationMetrics m = collector.take();
    EXPECT_EQ(m.cold_setup_attach, 1u);
    EXPECT_EQ(m.cold_all_busy, 1u);
    EXPECT_EQ(m.cold_no_container, 2u);
}

TEST(MetricsMergeTest, ColdCauseSplitAdds)
{
    MetricsCollector a(1);
    a.recordColdCause(false, false); // no container
    a.recordColdCause(false, true);  // all busy
    MetricsCollector b(1);
    b.recordColdCause(true, true);   // setup attach
    b.recordColdCause(false, false); // no container
    b.recordColdCause(false, true);  // all busy

    SimulationMetrics merged = a.take();
    merged.merge(b.take());
    EXPECT_EQ(merged.cold_no_container, 2u);
    EXPECT_EQ(merged.cold_all_busy, 2u);
    EXPECT_EQ(merged.cold_setup_attach, 1u);
    // The split partitions exactly the causes recorded across runs.
    EXPECT_EQ(merged.cold_no_container + merged.cold_all_busy +
                  merged.cold_setup_attach,
              5u);
}

TEST(MetricsMergeTest, EventLoopCountsAddPeaksMax)
{
    EventLoopStats a;
    a.popped[0] = 10;
    a.popped[3] = 4;
    a.stale_expiry_events = 2;
    a.stale_evict_entries = 7;
    a.eviction_victims_examined = 5;
    a.peak_live_containers = 100;
    a.peak_pending_events = 3;
    a.peak_bucket_events = 9;
    a.peak_evict_entries = 40;
    a.peak_wait_queue = 1;

    EventLoopStats b;
    b.popped[0] = 1;
    b.popped[5] = 6;
    b.stale_expiry_events = 1;
    b.stale_evict_entries = 0;
    b.eviction_victims_examined = 2;
    b.peak_live_containers = 60;
    b.peak_pending_events = 8;
    b.peak_bucket_events = 2;
    b.peak_evict_entries = 41;
    b.peak_wait_queue = 0;

    a.merge(b);
    // Work counters add across replicates ...
    EXPECT_EQ(a.popped[0], 11u);
    EXPECT_EQ(a.popped[3], 4u);
    EXPECT_EQ(a.popped[5], 6u);
    EXPECT_EQ(a.totalPopped(), 21u);
    EXPECT_EQ(a.stale_expiry_events, 3u);
    EXPECT_EQ(a.stale_evict_entries, 7u);
    EXPECT_EQ(a.eviction_victims_examined, 7u);
    // ... while capacity peaks take the max, never the sum.
    EXPECT_EQ(a.peak_live_containers, 100u);
    EXPECT_EQ(a.peak_pending_events, 8u);
    EXPECT_EQ(a.peak_bucket_events, 9u);
    EXPECT_EQ(a.peak_evict_entries, 41u);
    EXPECT_EQ(a.peak_wait_queue, 1u);
}

} // namespace
