/**
 * @file
 * End-to-end simulator tests on small hand-crafted traces where the
 * expected accounting can be verified exactly: warm/cold splits under
 * the fixed keep-alive policy, Oracle behaviour, FIFO waiting,
 * service-time composition, tier spill-over, policy-ordered eviction
 * and keep-alives that expire on an interval boundary.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/units.hh"
#include "harness/observe.hh"
#include "policies/faascache_policy.hh"
#include "policies/openwhisk_policy.hh"
#include "policies/oracle_policy.hh"
#include "sim/simulator.hh"

namespace
{

using namespace iceb;
using namespace iceb::sim;

/** One function, invoked once in each listed interval. */
trace::Trace
traceWithPattern(const std::vector<std::uint32_t> &counts,
                 std::size_t extra_fns = 0)
{
    trace::Trace tr(counts.size(), kMsPerMinute);
    trace::FunctionSeries fn;
    fn.name = "f0";
    fn.memory_mb = 256;
    fn.avg_exec_ms = 1000;
    fn.concurrency = counts;
    tr.addFunction(fn);
    for (std::size_t i = 0; i < extra_fns; ++i) {
        trace::FunctionSeries extra = fn;
        extra.name = "fx" + std::to_string(i);
        tr.addFunction(extra);
    }
    return tr;
}

std::vector<workload::FunctionProfile>
profilesFor(const trace::Trace &tr, MemoryMb mem = 256,
            TimeMs cst = 1000, TimeMs exec = 2000)
{
    workload::FunctionProfile p;
    p.name = "test";
    p.memory_mb = mem;
    p.cold_start_ms = {cst, cst};
    p.exec_ms = {exec, 2 * exec};
    return std::vector<workload::FunctionProfile>(tr.numFunctions(), p);
}

ClusterConfig
smallCluster(MemoryMb high_mb, MemoryMb low_mb)
{
    ClusterConfig config = defaultHeterogeneousCluster();
    config.spec(Tier::HighEnd).server_count = 1;
    config.spec(Tier::HighEnd).memory_per_server_mb = high_mb;
    config.spec(Tier::LowEnd).server_count = 1;
    config.spec(Tier::LowEnd).memory_per_server_mb = low_mb;
    return config;
}

TEST(SimulatorTest, SparseArrivalsAllColdUnderShortKeepAlive)
{
    // Arrivals 30 minutes apart with a 10-minute keep-alive: every
    // invocation cold starts.
    std::vector<std::uint32_t> counts(91, 0);
    counts[0] = counts[30] = counts[60] = counts[90] = 1;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(4096, 4096);

    policies::OpenWhiskPolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_EQ(m.invocations, 4u);
    EXPECT_EQ(m.cold_starts, 4u);
    EXPECT_EQ(m.warm_starts, 0u);
    // Service = CST + exec on the (preferred) high-end tier.
    EXPECT_DOUBLE_EQ(m.meanServiceMs(), 3000.0);
    EXPECT_DOUBLE_EQ(m.meanWaitMs(), 0.0);
    // Each invocation leaves one wasteful 10-minute keep-alive.
    const double rate = dollarsPerGbHourToMbMs(
        cluster.spec(Tier::HighEnd).dollars_per_gb_hour);
    EXPECT_NEAR(m.totalKeepAliveCost(),
                4.0 * keepAliveCost(256, 10 * kMsPerMinute, rate),
                1e-9);
    EXPECT_DOUBLE_EQ(m.tierKeepAlive(Tier::HighEnd).successful_cost,
                     0.0);
}

TEST(SimulatorTest, DenseArrivalsWarmUnderKeepAlive)
{
    // Arrivals every 5 minutes inside the 10-minute keep-alive: only
    // the very first is cold.
    std::vector<std::uint32_t> counts(46, 0);
    for (std::size_t t = 0; t < counts.size(); t += 5)
        counts[t] = 1;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(4096, 4096);

    policies::OpenWhiskPolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_EQ(m.invocations, 10u);
    EXPECT_EQ(m.cold_starts, 1u);
    EXPECT_EQ(m.warm_starts, 9u);
    EXPECT_GT(m.tierKeepAlive(Tier::HighEnd).successful_cost, 0.0);
}

TEST(SimulatorTest, ConcurrentBurstNeedsMultipleContainers)
{
    // Five simultaneous invocations: each needs its own instance, so
    // with no pre-warming all five are cold.
    std::vector<std::uint32_t> counts(5, 0);
    counts[0] = 5;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(8192, 8192);

    policies::OpenWhiskPolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_EQ(m.invocations, 5u);
    // Arrivals spread over <= 5 s while CST + exec = 3 s; at least the
    // leading arrivals must cold start on fresh containers.
    EXPECT_GE(m.cold_starts, 3u);
}

TEST(SimulatorTest, WaitQueueWhenMemoryExhausted)
{
    // Memory fits exactly one container; three simultaneous
    // invocations must serialise with nonzero wait.
    std::vector<std::uint32_t> counts(30, 0);
    counts[0] = 3;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(256, 0);

    policies::OpenWhiskPolicy policy(0); // no keep-alive: frees memory
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_EQ(m.invocations, 3u);
    EXPECT_EQ(m.cold_starts, 3u);
    EXPECT_GT(m.meanWaitMs(), 0.0);
}

TEST(SimulatorTest, OracleGetsAllWarmStartsAndZeroKeepAlive)
{
    std::vector<std::uint32_t> counts(60, 0);
    counts[5] = 2;
    counts[20] = 1;
    counts[40] = 3;
    const trace::Trace tr = traceWithPattern(counts, 2);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(8192, 8192);

    policies::OraclePolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_EQ(m.invocations, 18u);
    EXPECT_EQ(m.warm_starts, 18u);
    EXPECT_EQ(m.cold_starts, 0u);
    // Just-in-time: idle windows are (near) zero. Within-burst
    // double-provisioning may leave a sub-minute grace idle, so the
    // cost is bounded rather than exactly zero.
    EXPECT_LT(m.totalKeepAliveCost(), 1e-3);
    // All executions on the fast tier.
    EXPECT_DOUBLE_EQ(m.meanServiceMs(), 2000.0);
}

TEST(SimulatorTest, DeterministicAcrossRuns)
{
    std::vector<std::uint32_t> counts(120, 0);
    for (std::size_t t = 0; t < counts.size(); t += 7)
        counts[t] = 1 + t % 3;
    const trace::Trace tr = traceWithPattern(counts, 3);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(4096, 4096);

    policies::OpenWhiskPolicy p1, p2;
    const SimulationMetrics a =
        runSimulation(tr, profiles, cluster, p1);
    const SimulationMetrics b =
        runSimulation(tr, profiles, cluster, p2);
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_DOUBLE_EQ(a.sum_service_ms, b.sum_service_ms);
    EXPECT_DOUBLE_EQ(a.totalKeepAliveCost(), b.totalKeepAliveCost());
}

TEST(SimulatorTest, SeedChangesJitterButNotTotals)
{
    std::vector<std::uint32_t> counts(60, 0);
    counts[10] = 4;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(8192, 8192);

    policies::OpenWhiskPolicy p1, p2;
    SimulatorOptions o1, o2;
    o2.seed = o1.seed + 99;
    const SimulationMetrics a = runSimulation(tr, profiles, cluster,
                                              p1, o1);
    const SimulationMetrics b = runSimulation(tr, profiles, cluster,
                                              p2, o2);
    EXPECT_EQ(a.invocations, b.invocations);
}

TEST(SimulatorTest, OverheadChargedToEveryInvocation)
{
    class OverheadPolicy : public policies::OpenWhiskPolicy
    {
      public:
        TimeMs overheadMs() const override { return 25; }
    };
    std::vector<std::uint32_t> counts(3, 0);
    counts[0] = 1;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(4096, 4096);

    OverheadPolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_DOUBLE_EQ(m.sum_overhead_ms, 25.0);
    EXPECT_DOUBLE_EQ(m.meanServiceMs(), 3025.0);
}

// ------------------------------------------------------------- Golden
//
// Byte-identical regression gate for the sim-core data structures: a
// fig6-style multi-scheme run over a deterministic Rng-built trace,
// with every metric field (including each float sample's bit pattern)
// folded into one FNV-1a hash (harness::digestMetrics, each run's
// digest continuing from the previous one's). The constant below was captured from
// the seed implementation (hash-map containers, linear server scans,
// vector pools, binary event heap); any refactor of the sim layer
// must reproduce it exactly. The workload only exercises
// transcendental-free policies so the hash does not depend on libm.

// A deterministic bursty multi-function workload that oversubscribes
// the golden cluster's memory, so warm pools, setup attach, the wait
// queue, expiry, and eviction all fire during the golden run.
TEST(SimulatorGoldenTest, MetricsHashMatchesSeedImplementation)
{
    constexpr std::size_t kFns = 14;
    constexpr std::size_t kIntervals = 240;
    trace::Trace tr(kIntervals, kMsPerMinute);
    Rng rng(0x1CEB'601Dull);
    std::vector<workload::FunctionProfile> profiles;
    for (std::size_t fn = 0; fn < kFns; ++fn) {
        Rng stream = rng.fork(fn);
        trace::FunctionSeries series;
        series.name = "g" + std::to_string(fn);
        series.memory_mb = 128 + 128 * stream.uniformInt(1, 4);
        series.avg_exec_ms = 500 * stream.uniformInt(1, 6);
        series.concurrency.assign(kIntervals, 0);
        // Bursty arrivals: active runs separated by idle gaps sized
        // around the 10-minute baseline keep-alive so both warm hits
        // and expiries occur.
        std::size_t iv = static_cast<std::size_t>(
            stream.uniformInt(0, 12));
        while (iv < kIntervals) {
            const std::size_t burst = static_cast<std::size_t>(
                stream.uniformInt(1, 4));
            for (std::size_t b = 0; b < burst && iv < kIntervals;
                 ++b, ++iv) {
                series.concurrency[iv] = static_cast<std::uint32_t>(
                    stream.uniformInt(1, 5));
            }
            iv += static_cast<std::size_t>(stream.uniformInt(2, 18));
        }
        tr.addFunction(series);

        workload::FunctionProfile profile;
        profile.name = series.name;
        profile.memory_mb = series.memory_mb;
        profile.cold_start_ms = {
            1000 + 250 * stream.uniformInt(0, 4),
            2000 + 500 * stream.uniformInt(0, 4)};
        profile.exec_ms = {series.avg_exec_ms, 2 * series.avg_exec_ms};
        profiles.push_back(profile);
    }

    // Two small servers per tier: bursts oversubscribe memory, so
    // eviction and the FIFO wait queue both engage.
    ClusterConfig cluster = defaultHeterogeneousCluster();
    cluster.spec(Tier::HighEnd).server_count = 2;
    cluster.spec(Tier::HighEnd).memory_per_server_mb = 1536;
    cluster.spec(Tier::LowEnd).server_count = 2;
    cluster.spec(Tier::LowEnd).memory_per_server_mb = 1536;

    std::uint64_t hash = obs::Digest::kOffsetBasis;
    {
        policies::OpenWhiskPolicy policy;
        hash = harness::digestMetrics(
            runSimulation(tr, profiles, cluster, policy), hash);
    }
    {
        policies::OpenWhiskPolicy policy(2 * kMsPerMinute);
        hash = harness::digestMetrics(
            runSimulation(tr, profiles, cluster, policy), hash);
    }
    {
        policies::FaasCachePolicy policy;
        hash = harness::digestMetrics(
            runSimulation(tr, profiles, cluster, policy), hash);
    }
    {
        policies::OraclePolicy policy;
        hash = harness::digestMetrics(
            runSimulation(tr, profiles, cluster, policy), hash);
    }

    constexpr std::uint64_t kSeedImplementationHash =
        0xf22c29a34a536e90ull;
    EXPECT_EQ(hash, kSeedImplementationHash)
        << "sim-core refactor changed simulation output; hash is now 0x"
        << std::hex << hash;
}

// The golden above never puts 4,096 candidates in an eviction heap,
// so it cannot see the heap's compaction. Here containers idle more
// than 12,000 times per tier: both tiers' heaps pass that floor
// several times per run while evictions keep popping them (~15,000
// pops per run). The hash pins the victim sequence the uncompacted
// lazy heap produced.
TEST(SimulatorGoldenTest, EvictionHeavyMetricsHashIsStable)
{
    // Steady functions run all day and fill the high-end tier, then
    // spill onto the low-end one; bursty ones crowd in for the last
    // third and force evictions on both.
    constexpr std::size_t kSteady = 16;
    constexpr std::size_t kBursty = 40;
    constexpr std::size_t kIntervals = 720;
    constexpr std::size_t kCrowdFrom = 480;
    trace::Trace tr(kIntervals, kMsPerMinute);
    Rng rng(0xE71C'7105ull);
    std::vector<workload::FunctionProfile> profiles;
    for (std::size_t fn = 0; fn < kSteady + kBursty; ++fn) {
        Rng stream = rng.fork(fn);
        const bool steady = fn < kSteady;
        trace::FunctionSeries series;
        series.name = "e" + std::to_string(fn);
        series.memory_mb = 256 + 128 * stream.uniformInt(0, 3);
        series.avg_exec_ms = 400 * stream.uniformInt(1, 5);
        series.concurrency.assign(kIntervals, 0);
        std::size_t iv = steady
            ? 0
            : kCrowdFrom + static_cast<std::size_t>(
                               stream.uniformInt(0, 20));
        while (iv < kIntervals) {
            const std::size_t burst = steady
                ? kIntervals
                : static_cast<std::size_t>(stream.uniformInt(5, 20));
            for (std::size_t b = 0; b < burst && iv < kIntervals;
                 ++b, ++iv) {
                series.concurrency[iv] = static_cast<std::uint32_t>(
                    stream.uniformInt(1, 3));
            }
            iv += static_cast<std::size_t>(stream.uniformInt(1, 10));
        }
        tr.addFunction(series);

        workload::FunctionProfile profile;
        profile.name = series.name;
        profile.memory_mb = series.memory_mb;
        profile.cold_start_ms = {800 + 200 * stream.uniformInt(0, 4),
                                 1600 + 400 * stream.uniformInt(0, 4)};
        profile.exec_ms = {series.avg_exec_ms, 2 * series.avg_exec_ms};
        profiles.push_back(profile);
    }

    ClusterConfig cluster = defaultHeterogeneousCluster();
    cluster.spec(Tier::HighEnd).server_count = 1;
    cluster.spec(Tier::HighEnd).memory_per_server_mb = 8192;
    cluster.spec(Tier::LowEnd).server_count = 2;
    cluster.spec(Tier::LowEnd).memory_per_server_mb = 8192;

    std::uint64_t hash = obs::Digest::kOffsetBasis;
    const auto runAndHash = [&](Policy &policy) {
        const SimulationMetrics m =
            runSimulation(tr, profiles, cluster, policy);
        // A heap passes the compaction floor, victims are popped,
        // and both tiers see thousands of idle spells.
        EXPECT_GE(m.event_loop.peak_evict_entries, 4096u);
        EXPECT_GT(m.event_loop.eviction_victims_examined, 0u);
        EXPECT_GT(m.service_times_high_ms.size(), 2 * 4096u);
        EXPECT_GT(m.service_times_low_ms.size(), 2 * 4096u);
        hash = harness::digestMetrics(m, hash);
    };
    {
        policies::FaasCachePolicy policy;
        runAndHash(policy);
    }
    {
        policies::OpenWhiskPolicy policy;
        runAndHash(policy);
    }

    constexpr std::uint64_t kUncompactedHeapHash = 0xe09a9d2ce6f600deull;
    EXPECT_EQ(hash, kUncompactedHeapHash)
        << "eviction order changed; hash is now 0x" << std::hex << hash;
}

TEST(SimulatorTest, ColdPlacementSpillsToOtherTierWhenFull)
{
    // The high-end tier fits a single container: a burst of two
    // concurrent invocations must spill the second cold start to the
    // low-end tier.
    trace::Trace tr(3, kMsPerMinute);
    trace::FunctionSeries series;
    series.name = "f0";
    series.memory_mb = 256;
    series.avg_exec_ms = 70'000;
    series.concurrency = {2, 0, 0};
    tr.addFunction(series);
    workload::FunctionProfile profile;
    profile.name = "f0";
    profile.memory_mb = 256;
    profile.cold_start_ms = {1000, 1000};
    // Executions outlast the interval, so the two arrivals overlap no
    // matter where the jitter lands them: the second cannot reuse the
    // first's container and must place cold.
    profile.exec_ms = {70'000, 70'000};
    const std::vector<workload::FunctionProfile> profiles = {profile};
    const ClusterConfig cluster = smallCluster(256, 4096);

    policies::OpenWhiskPolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);

    // One service on each tier: the spillover happened.
    EXPECT_EQ(m.service_times_high_ms.size(), 1u);
    EXPECT_EQ(m.service_times_low_ms.size(), 1u);
}

/**
 * Deterministic eviction order: priority == function id, so the
 * lowest id is always reclaimed first; records victims for the test.
 */
class EvictLowestIdPolicy : public policies::OpenWhiskPolicy
{
  public:
    double evictionPriority(FunctionId fn, Tier, TimeMs,
                            TimeMs) override
    {
        return static_cast<double>(fn);
    }

    void onEviction(FunctionId fn, Tier, TimeMs) override
    {
        victims.push_back(fn);
    }

    std::vector<FunctionId> victims;
};

TEST(SimulatorTest, EvictionOrderFollowsPolicyPriority)
{
    // Three idle containers (fns 0..2) fill the only server; a burst
    // from fn 3 must evict them in priority order 0, 1, 2.
    trace::Trace tr(12, kMsPerMinute);
    std::vector<workload::FunctionProfile> profiles;
    for (std::size_t fn = 0; fn < 4; ++fn) {
        trace::FunctionSeries series;
        series.name = "f" + std::to_string(fn);
        series.memory_mb = 256;
        series.avg_exec_ms = 1000;
        series.concurrency.assign(12, 0);
        if (fn < 3)
            series.concurrency[0] = 1; // idle residents after iv 0
        else
            series.concurrency[2] = 3; // the evicting burst
        tr.addFunction(series);
        workload::FunctionProfile profile;
        profile.name = series.name;
        profile.memory_mb = 256;
        profile.cold_start_ms = {1000, 1000};
        // Residents finish fast and sit idle; the burst's executions
        // outlast the interval so its three arrivals need three
        // simultaneous containers regardless of jitter.
        const TimeMs exec = fn < 3 ? 1000 : 70'000;
        profile.exec_ms = {exec, exec};
        profiles.push_back(profile);
    }
    const ClusterConfig cluster = smallCluster(3 * 256, 0);

    EvictLowestIdPolicy policy;
    (void)runSimulation(tr, profiles, cluster, policy);
    ASSERT_EQ(policy.victims.size(), 3u);
    EXPECT_EQ(policy.victims[0], 0u);
    EXPECT_EQ(policy.victims[1], 1u);
    EXPECT_EQ(policy.victims[2], 2u);
}

/** Grants keep-alives that expire exactly ON the next interval start. */
class BoundaryKeepAlivePolicy : public policies::OpenWhiskPolicy
{
  public:
    TimeMs keepAliveAfterExecutionMs(FunctionId, Tier,
                                     TimeMs now) override
    {
        const TimeMs next_boundary =
            (now / kMsPerMinute + 1) * kMsPerMinute;
        return next_boundary - now;
    }
};

TEST(SimulatorTest, KeepAliveExpiringOnIntervalBoundaryIsDeterministic)
{
    // An expiry event carries the interval boundary's own timestamp,
    // so it must sort against the next interval's prewarms and
    // arrivals identically on every run.
    trace::Trace tr(16, kMsPerMinute);
    trace::FunctionSeries series;
    series.name = "fn0";
    series.memory_mb = 128;
    series.avg_exec_ms = 500;
    for (std::uint32_t iv = 0; iv < 16; ++iv)
        series.concurrency.push_back(1 + iv % 4);
    tr.addFunction(series);
    workload::FunctionProfile profile;
    profile.name = series.name;
    profile.memory_mb = 128;
    profile.cold_start_ms = {800, 2500};
    profile.exec_ms = {500, 1000};
    const std::vector<workload::FunctionProfile> profiles = {profile};
    ClusterConfig cluster = defaultHeterogeneousCluster();
    cluster.spec(Tier::HighEnd).server_count = 6;
    cluster.spec(Tier::HighEnd).memory_per_server_mb = 4096;
    cluster.spec(Tier::LowEnd).server_count = 9;
    cluster.spec(Tier::LowEnd).memory_per_server_mb = 3072;

    const auto run = [&] {
        BoundaryKeepAlivePolicy policy;
        return runSimulation(tr, profiles, cluster, policy);
    };
    const SimulationMetrics first = run();
    const SimulationMetrics second = run();
    EXPECT_EQ(harness::digestMetrics(first),
              harness::digestMetrics(second));
}

TEST(SimulatorTest, HighTierPreferredWhileItHasRoom)
{
    std::vector<std::uint32_t> counts(20, 0);
    counts[0] = 1;
    counts[10] = 1;
    const trace::Trace tr = traceWithPattern(counts);
    const auto profiles = profilesFor(tr);
    const ClusterConfig cluster = smallCluster(4096, 4096);

    policies::OpenWhiskPolicy policy;
    const SimulationMetrics m =
        runSimulation(tr, profiles, cluster, policy);
    EXPECT_EQ(m.service_times_high_ms.size(), 2u);
    EXPECT_TRUE(m.service_times_low_ms.empty());
}

} // namespace
