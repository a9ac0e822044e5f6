/**
 * @file
 * Cross-module integration and conservation properties: for every
 * scheme on a shared workload, the metric identities that must hold
 * regardless of policy behaviour (counts add up, costs split
 * consistently, per-function aggregates reconcile with the totals),
 * plus end-to-end determinism and a parameterized all-schemes sweep.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "harness/experiment.hh"
#include "harness/report.hh"
#include "sim/cluster_config.hh"

namespace
{

using namespace iceb;

const harness::Workload &
sharedWorkload()
{
    static const harness::Workload workload = [] {
        trace::SyntheticConfig config;
        config.num_functions = 90;
        config.num_intervals = 420;
        config.min_memory_mb = 256;
        return harness::makeWorkload(config);
    }();
    return workload;
}

class SchemeInvariantTest
    : public ::testing::TestWithParam<harness::Scheme>
{
};

TEST_P(SchemeInvariantTest, CountsAndComponentsReconcile)
{
    const harness::Workload &workload = sharedWorkload();
    const auto result = harness::runScheme(
        GetParam(), workload, sim::defaultHeterogeneousCluster());
    const sim::SimulationMetrics &m = result.metrics;

    // Every trace invocation was served exactly once.
    EXPECT_EQ(m.invocations, workload.trace.totalInvocations());
    EXPECT_EQ(m.warm_starts + m.cold_starts, m.invocations);
    EXPECT_EQ(m.cold_no_container + m.cold_all_busy +
                  m.cold_setup_attach,
              m.cold_starts);

    // Tier-split samples cover every invocation.
    EXPECT_EQ(m.service_times_high_ms.size() +
                  m.service_times_low_ms.size(),
              m.invocations);
    EXPECT_EQ(m.service_times_ms.size(), m.invocations);

    // Service-time components compose the total.
    EXPECT_NEAR(m.sum_service_ms,
                m.sum_wait_ms + m.sum_cold_ms + m.sum_exec_ms +
                    m.sum_overhead_ms,
                1e-6 * std::max(1.0, m.sum_service_ms));

    // Per-function aggregates reconcile with the global counters.
    std::uint64_t invocations = 0;
    std::uint64_t cold = 0;
    double service = 0.0;
    Dollars keep_alive = 0.0;
    for (const auto &fm : m.per_function) {
        invocations += fm.invocations;
        cold += fm.cold_starts;
        service += fm.sum_service_ms;
        keep_alive += fm.keep_alive_cost;
    }
    EXPECT_EQ(invocations, m.invocations);
    EXPECT_EQ(cold, m.cold_starts);
    EXPECT_NEAR(service, m.sum_service_ms,
                1e-6 * std::max(1.0, service));
    EXPECT_NEAR(keep_alive, m.totalKeepAliveCost(),
                1e-9 + 1e-9 * keep_alive);

    // Costs are non-negative and split per tier.
    for (Tier tier : {Tier::HighEnd, Tier::LowEnd}) {
        const sim::TierKeepAlive &ka = m.tierKeepAlive(tier);
        EXPECT_GE(ka.successful_cost, 0.0);
        EXPECT_GE(ka.wasteful_cost, 0.0);
        EXPECT_GE(ka.wasted_mb_ms, 0.0);
    }
}

TEST_P(SchemeInvariantTest, DeterministicEndToEnd)
{
    const harness::Workload &workload = sharedWorkload();
    const auto a = harness::runScheme(
        GetParam(), workload, sim::defaultHeterogeneousCluster());
    const auto b = harness::runScheme(
        GetParam(), workload, sim::defaultHeterogeneousCluster());
    EXPECT_EQ(a.metrics.cold_starts, b.metrics.cold_starts);
    EXPECT_DOUBLE_EQ(a.metrics.sum_service_ms, b.metrics.sum_service_ms);
    EXPECT_DOUBLE_EQ(a.metrics.totalKeepAliveCost(),
                     b.metrics.totalKeepAliveCost());
}

TEST_P(SchemeInvariantTest, SurvivesHomogeneousClusters)
{
    const harness::Workload &workload = sharedWorkload();
    for (const sim::ClusterConfig &cluster :
         {sim::homogeneousHighEndCluster(),
          sim::homogeneousLowEndCluster()}) {
        const auto result =
            harness::runScheme(GetParam(), workload, cluster);
        EXPECT_EQ(result.metrics.invocations,
                  workload.trace.totalInvocations())
            << cluster.name;
        // A single-tier cluster must place everything on that tier.
        if (cluster.spec(Tier::LowEnd).server_count == 0) {
            EXPECT_TRUE(result.metrics.service_times_low_ms.empty());
        }
        if (cluster.spec(Tier::HighEnd).server_count == 0) {
            EXPECT_TRUE(result.metrics.service_times_high_ms.empty());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeInvariantTest,
    ::testing::Values(harness::Scheme::OpenWhisk, harness::Scheme::Wild,
                      harness::Scheme::FaasCache,
                      harness::Scheme::IceBreaker,
                      harness::Scheme::Oracle),
    [](const ::testing::TestParamInfo<harness::Scheme> &info) {
        return harness::schemeName(info.param);
    });

TEST(IntegrationTest, HeadlineOrderingOnPressuredWorkload)
{
    // The paper's headline on a memory-pressured workload: IceBreaker
    // posts the best online keep-alive cost AND the best online
    // service time; the Oracle bounds both.
    trace::SyntheticConfig config;
    config.num_functions = 380;
    config.num_intervals = 480;
    config.min_memory_mb = 256;
    const harness::Workload workload = harness::makeWorkload(config);
    const auto results = harness::runAllSchemes(
        workload, sim::defaultHeterogeneousCluster());

    const auto &wild = results[1].metrics;
    const auto &faascache = results[2].metrics;
    const auto &icebreaker = results[3].metrics;
    const auto &oracle = results[4].metrics;

    EXPECT_LT(icebreaker.totalKeepAliveCost(),
              wild.totalKeepAliveCost());
    EXPECT_LT(icebreaker.totalKeepAliveCost(),
              faascache.totalKeepAliveCost());
    EXPECT_LT(icebreaker.meanServiceMs(), wild.meanServiceMs());
    EXPECT_LE(icebreaker.meanServiceMs(),
              faascache.meanServiceMs() * 1.02);
    EXPECT_LE(oracle.meanServiceMs(), icebreaker.meanServiceMs());
    EXPECT_LE(oracle.totalKeepAliveCost(),
              icebreaker.totalKeepAliveCost());
}

TEST(IntegrationTest, BudgetSweepRunsEverywhere)
{
    trace::SyntheticConfig config;
    config.num_functions = 50;
    config.num_intervals = 180;
    const harness::Workload workload = harness::makeWorkload(config);
    for (const sim::ClusterConfig &cluster :
         sim::budgetConstantSweep()) {
        const auto result = harness::runScheme(
            harness::Scheme::IceBreaker, workload, cluster);
        EXPECT_EQ(result.metrics.invocations,
                  workload.trace.totalInvocations())
            << cluster.name;
    }
}

TEST(IntegrationTest, OverheadAccountedForEveryScheme)
{
    const harness::Workload &workload = sharedWorkload();
    const auto results = harness::runAllSchemes(
        workload, sim::defaultHeterogeneousCluster());
    // IceBreaker charges 30 ms, Wild/FaasCache 10-20 ms, the baseline
    // and Oracle nothing (paper Sec. 5 overhead accounting).
    const double n = static_cast<double>(results[0].metrics.invocations);
    EXPECT_DOUBLE_EQ(results[0].metrics.sum_overhead_ms, 0.0);
    EXPECT_NEAR(results[1].metrics.sum_overhead_ms / n, 15.0, 1e-9);
    EXPECT_NEAR(results[2].metrics.sum_overhead_ms / n, 12.0, 1e-9);
    EXPECT_NEAR(results[3].metrics.sum_overhead_ms / n, 30.0, 1e-9);
    EXPECT_DOUBLE_EQ(results[4].metrics.sum_overhead_ms, 0.0);
}

} // namespace
