/**
 * @file
 * Tests for the parallel experiment engine: the policy registry, the
 * determinism contract (threaded == serial, bit for bit), metrics
 * merge correctness against whole-set collection, replicate
 * aggregation, and the named baseline-gate messages the benches print.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "common/rng.hh"
#include "harness/baseline_gate.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "sim/metrics_summary.hh"

namespace
{

using namespace iceb;

harness::Workload
smallWorkload()
{
    trace::SyntheticConfig config;
    config.num_functions = 24;
    config.num_intervals = 90;
    config.min_memory_mb = 256;
    return harness::makeWorkload(config);
}

/** Exact (bitwise for floats) equality of two runs' metrics. */
void
expectMetricsIdentical(const sim::SimulationMetrics &a,
                       const sim::SimulationMetrics &b)
{
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_no_container, b.cold_no_container);
    EXPECT_EQ(a.cold_all_busy, b.cold_all_busy);
    EXPECT_EQ(a.cold_setup_attach, b.cold_setup_attach);
    EXPECT_EQ(a.sum_service_ms, b.sum_service_ms);
    EXPECT_EQ(a.sum_wait_ms, b.sum_wait_ms);
    EXPECT_EQ(a.sum_cold_ms, b.sum_cold_ms);
    EXPECT_EQ(a.sum_exec_ms, b.sum_exec_ms);
    EXPECT_EQ(a.sum_overhead_ms, b.sum_overhead_ms);
    EXPECT_EQ(a.service_times_ms, b.service_times_ms);
    EXPECT_EQ(a.service_times_high_ms, b.service_times_high_ms);
    EXPECT_EQ(a.service_times_low_ms, b.service_times_low_ms);
    ASSERT_EQ(a.per_function.size(), b.per_function.size());
    for (std::size_t fn = 0; fn < a.per_function.size(); ++fn) {
        EXPECT_EQ(a.per_function[fn].invocations,
                  b.per_function[fn].invocations);
        EXPECT_EQ(a.per_function[fn].sum_service_ms,
                  b.per_function[fn].sum_service_ms);
        EXPECT_EQ(a.per_function[fn].keep_alive_cost,
                  b.per_function[fn].keep_alive_cost);
    }
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        EXPECT_EQ(a.keep_alive[t].successful_cost,
                  b.keep_alive[t].successful_cost);
        EXPECT_EQ(a.keep_alive[t].wasteful_cost,
                  b.keep_alive[t].wasteful_cost);
        EXPECT_EQ(a.keep_alive[t].wasted_mb_ms,
                  b.keep_alive[t].wasted_mb_ms);
    }
}

TEST(SeedDerivationTest, PureAndDecorrelated)
{
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(1, 1));
    EXPECT_NE(deriveSeed(1, 0), deriveSeed(2, 0));
    // forRun is a thin wrapper over deriveSeed.
    EXPECT_EQ(sim::SimulatorOptions::forRun(7, 3).seed,
              deriveSeed(7, 3));
}

TEST(RegistryTest, BuiltinsRegistered)
{
    harness::PolicyRegistry &registry =
        harness::PolicyRegistry::instance();
    for (harness::Scheme scheme : harness::allSchemes()) {
        EXPECT_TRUE(registry.contains(harness::schemeKey(scheme)));
        const std::unique_ptr<sim::Policy> policy =
            harness::makePolicy(scheme);
        ASSERT_NE(policy, nullptr);
        // Policies report their registry key as their name.
        EXPECT_STREQ(policy->name(), harness::schemeKey(scheme));
    }
    EXPECT_FALSE(registry.contains("no-such-policy"));
}

TEST(RegistryTest, ScopedRegistrationAddsAndRemoves)
{
    harness::PolicyRegistry &registry =
        harness::PolicyRegistry::instance();
    {
        const harness::ScopedPolicyRegistration reg(
            "test-openwhisk-clone",
            [] { return harness::makePolicy(harness::Scheme::OpenWhisk); });
        EXPECT_TRUE(registry.contains("test-openwhisk-clone"));
        const auto policy =
            harness::makePolicyByName("test-openwhisk-clone");
        EXPECT_STREQ(policy->name(), "openwhisk");
    }
    EXPECT_FALSE(registry.contains("test-openwhisk-clone"));
}

TEST(RunnerTest, GridOrderIsPointSchemeReplicate)
{
    const harness::Workload workload = smallWorkload();
    const std::vector<harness::SweepPoint> points = {
        {"p0", sim::defaultHeterogeneousCluster()},
        {"p1", sim::defaultHeterogeneousCluster()},
    };
    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        {"openwhisk", "oracle"}, workload, points, 42, 3);
    ASSERT_EQ(grid.size(), 2u * 2u * 3u);
    EXPECT_EQ(grid[0].label, "p0");
    EXPECT_EQ(grid[0].scheme, "openwhisk");
    EXPECT_EQ(grid[0].run_index, 0u);
    EXPECT_EQ(grid[2].run_index, 2u);
    EXPECT_EQ(grid[3].scheme, "oracle");
    EXPECT_EQ(grid[6].label, "p1");
    for (const harness::RunSpec &spec : grid) {
        EXPECT_EQ(spec.base_seed, 42u);
        EXPECT_EQ(spec.workload, &workload);
    }
}

TEST(RunnerDeterminismTest, ThreadedMatchesSerialBitForBit)
{
    const harness::Workload workload = smallWorkload();
    const std::vector<harness::SweepPoint> points = {
        {"", sim::defaultHeterogeneousCluster()}};
    std::vector<std::string> schemes;
    for (harness::Scheme scheme : harness::allSchemes())
        schemes.push_back(harness::schemeKey(scheme));
    const std::vector<harness::RunSpec> grid =
        harness::buildGrid(schemes, workload, points,
                           harness::kDefaultBaseSeed, 2);

    const std::vector<harness::RunResult> serial =
        harness::ExperimentRunner(1).run(grid);
    const std::vector<harness::RunResult> threaded =
        harness::ExperimentRunner(4).run(grid);

    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].spec.scheme, threaded[i].spec.scheme);
        EXPECT_EQ(serial[i].spec.run_index,
                  threaded[i].spec.run_index);
        expectMetricsIdentical(serial[i].metrics,
                               threaded[i].metrics);
    }
}

TEST(RunnerDeterminismTest, RepeatedThreadedRunsIdentical)
{
    const harness::Workload workload = smallWorkload();
    const std::vector<harness::SweepPoint> points = {
        {"", sim::defaultHeterogeneousCluster()}};
    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        {"icebreaker", "wild"}, workload, points, 7, 2);
    const std::vector<harness::RunResult> a =
        harness::ExperimentRunner(3).run(grid);
    const std::vector<harness::RunResult> b =
        harness::ExperimentRunner(3).run(grid);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectMetricsIdentical(a[i].metrics, b[i].metrics);
}

TEST(RunnerDeterminismTest, ReplicatesUseDistinctStreams)
{
    const harness::Workload workload = smallWorkload();
    const std::vector<harness::SweepPoint> points = {
        {"", sim::defaultHeterogeneousCluster()}};
    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        {"openwhisk"}, workload, points, harness::kDefaultBaseSeed, 2);
    const std::vector<harness::RunResult> results =
        harness::ExperimentRunner(2).run(grid);
    ASSERT_EQ(results.size(), 2u);
    // Same trace, different arrival jitter: totals match, samples
    // (almost surely) differ.
    EXPECT_EQ(results[0].metrics.invocations,
              results[1].metrics.invocations);
    EXPECT_NE(results[0].metrics.service_times_ms,
              results[1].metrics.service_times_ms);
}

/** Hand-built invocation fixture split across two collectors. */
TEST(MetricsMergeTest, MergeEqualsWholeSetCollection)
{
    const auto outcome = [](FunctionId fn, Tier tier, bool cold,
                            TimeMs wait, TimeMs cold_ms, TimeMs exec) {
        sim::InvocationOutcome o;
        o.fn = fn;
        o.tier = tier;
        o.cold = cold;
        o.wait_ms = wait;
        o.cold_start_ms = cold_ms;
        o.exec_ms = exec;
        return o;
    };
    const std::vector<sim::InvocationOutcome> outcomes = {
        outcome(0, Tier::HighEnd, true, 0, 900, 1000),
        outcome(0, Tier::HighEnd, false, 10, 0, 1000),
        outcome(1, Tier::LowEnd, true, 250, 1500, 2000),
        outcome(2, Tier::HighEnd, false, 0, 0, 500),
    };

    // Whole set through one collector...
    sim::MetricsCollector whole(3);
    for (const auto &o : outcomes)
        whole.recordInvocation(o);
    whole.recordColdCause(false, false);
    whole.recordColdCause(true, true);
    whole.recordKeepAlive(Tier::HighEnd, 0, 256, 60'000, true, 1e-9);
    whole.recordKeepAlive(Tier::LowEnd, 1, 512, 30'000, false, 5e-10);

    // ...vs a 2/2 split merged afterwards.
    sim::MetricsCollector first(3), second(3);
    first.recordInvocation(outcomes[0]);
    first.recordInvocation(outcomes[1]);
    first.recordColdCause(false, false);
    first.recordKeepAlive(Tier::HighEnd, 0, 256, 60'000, true, 1e-9);
    second.recordInvocation(outcomes[2]);
    second.recordInvocation(outcomes[3]);
    second.recordColdCause(true, true);
    second.recordKeepAlive(Tier::LowEnd, 1, 512, 30'000, false, 5e-10);

    sim::SimulationMetrics merged = first.take();
    merged.merge(second.take());
    expectMetricsIdentical(whole.take(), merged);

    // Spot-check the hand-computed values.
    EXPECT_EQ(merged.invocations, 4u);
    EXPECT_EQ(merged.cold_starts, 2u);
    EXPECT_EQ(merged.cold_setup_attach, 1u);
    EXPECT_DOUBLE_EQ(merged.sum_service_ms,
                     1900.0 + 1010.0 + 3750.0 + 500.0);
    EXPECT_EQ(merged.per_function[0].invocations, 2u);
    EXPECT_EQ(merged.service_times_low_ms.size(), 1u);
}

TEST(MetricsSummaryTest, HandCheckedAggregation)
{
    // Three fake "runs" with known scalar metrics.
    std::vector<sim::SimulationMetrics> runs(3);
    const double services[] = {100.0, 200.0, 300.0};
    for (std::size_t i = 0; i < runs.size(); ++i) {
        runs[i].per_function.resize(1);
        runs[i].invocations = 2;
        runs[i].warm_starts = i; // warm fractions 0, 0.5, 1
        runs[i].sum_service_ms = 2.0 * services[i];
        runs[i].service_times_ms = {
            static_cast<float>(services[i]),
            static_cast<float>(services[i])};
        runs[i].keep_alive[0].successful_cost = 1.0 + i;
    }
    const sim::MetricsSummary summary = sim::summarizeRuns(runs);
    EXPECT_EQ(summary.runs, 3u);
    EXPECT_DOUBLE_EQ(summary.mean_service_ms.mean, 200.0);
    // Population stddev of {100, 200, 300}.
    EXPECT_NEAR(summary.mean_service_ms.stddev, 81.6496580927726,
                1e-9);
    EXPECT_DOUBLE_EQ(summary.mean_service_ms.min, 100.0);
    EXPECT_DOUBLE_EQ(summary.mean_service_ms.max, 300.0);
    EXPECT_DOUBLE_EQ(summary.warm_start_fraction.mean, 0.5);
    EXPECT_DOUBLE_EQ(summary.keep_alive_cost.mean, 2.0);
    EXPECT_DOUBLE_EQ(summary.invocations.mean, 2.0);
    // Pooled: all six samples concatenated; totals add.
    EXPECT_EQ(summary.pooled.invocations, 6u);
    EXPECT_EQ(summary.pooled.service_times_ms.size(), 6u);
    EXPECT_DOUBLE_EQ(summary.pooled.totalKeepAliveCost(), 6.0);
    EXPECT_DOUBLE_EQ(summary.pooledServicePercentileMs(0.5), 200.0);
}

TEST(MetricsSummaryTest, SummarizeGridGroupsCells)
{
    const harness::Workload workload = smallWorkload();
    const std::vector<harness::SweepPoint> points = {
        {"a", sim::defaultHeterogeneousCluster()},
        {"b", sim::defaultHeterogeneousCluster()},
    };
    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        {"openwhisk", "oracle"}, workload, points,
        harness::kDefaultBaseSeed, 2);
    const std::vector<harness::CellSummary> cells =
        harness::summarizeGrid(harness::ExperimentRunner(2).run(grid));
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].label, "a");
    EXPECT_EQ(cells[0].scheme, "openwhisk");
    EXPECT_EQ(cells[1].scheme, "oracle");
    EXPECT_EQ(cells[2].label, "b");
    for (const harness::CellSummary &cell : cells) {
        EXPECT_EQ(cell.summary.runs, 2u);
        EXPECT_EQ(cell.summary.pooled.invocations,
                  2 * workload.trace.totalInvocations());
    }
}

// ------------------------------------------- named baseline gates

TEST(BaselineGateTest, RatioGateNamesMetricAndFloor)
{
    const harness::GateResult pass =
        harness::gateRatio("speedup ratio", 2.5, 2.4, 0.02);
    EXPECT_TRUE(pass.ok);
    EXPECT_NE(pass.message.find("[speedup ratio]"), std::string::npos);
    EXPECT_NE(pass.message.find("meets floor"), std::string::npos);

    const harness::GateResult fail =
        harness::gateRatio("speedup ratio", 2.0, 2.4, 0.02);
    EXPECT_FALSE(fail.ok);
    EXPECT_NE(fail.message.find("[speedup ratio]"), std::string::npos);
    EXPECT_NE(fail.message.find("fell below floor"), std::string::npos);
    EXPECT_NE(fail.message.find("2.00000"), std::string::npos);

    // Exactly on the floor still passes.
    EXPECT_TRUE(harness::gateRatio("r", 0.98, 1.0, 0.02).ok);
}

TEST(BaselineGateTest, DigestGateNamesMetricAndBothDigests)
{
    const harness::GateResult pass = harness::gateDigest(
        "metrics digest", "0xabc", "0xabc");
    EXPECT_TRUE(pass.ok);
    EXPECT_NE(pass.message.find("[metrics digest]"), std::string::npos);

    const harness::GateResult fail = harness::gateDigest(
        "metrics digest", "0xabc", "0xdef");
    EXPECT_FALSE(fail.ok);
    EXPECT_NE(fail.message.find("[metrics digest]"), std::string::npos);
    EXPECT_NE(fail.message.find("0xabc"), std::string::npos);
    EXPECT_NE(fail.message.find("0xdef"), std::string::npos);
}

TEST(BaselineGateTest, FlatJsonScrapers)
{
    const std::string text = R"({
  "speedup_vs_legacy": 2.625,
  "sharded": {"metrics_digest": "0x74c3670947bc06f0", "workers": 4}
})";
    const std::optional<double> number =
        harness::findJsonNumber(text, "speedup_vs_legacy");
    ASSERT_TRUE(number.has_value());
    EXPECT_DOUBLE_EQ(*number, 2.625);
    EXPECT_EQ(harness::findJsonString(text, "metrics_digest"),
              std::optional<std::string>("0x74c3670947bc06f0"));

    EXPECT_FALSE(
        harness::findJsonNumber(text, "no_such_key").has_value());
    EXPECT_FALSE(
        harness::findJsonString(text, "no_such_key").has_value());
    // Type confusion is rejected, not coerced.
    EXPECT_FALSE(
        harness::findJsonNumber(text, "metrics_digest").has_value());
    EXPECT_FALSE(
        harness::findJsonString(text, "workers").has_value());
}

} // namespace

TEST(RunnerConvenienceTest, RunAllSchemesParallelMatchesSchemeOrder)
{
    using namespace iceb;
    const harness::Workload workload = smallWorkload();
    harness::RunnerOptions options;
    options.threads = 2;
    options.repeats = 2;
    const std::vector<harness::SchemeSummary> summaries =
        harness::runAllSchemesParallel(
            workload, sim::defaultHeterogeneousCluster(), options);
    const std::vector<harness::Scheme> order = harness::allSchemes();
    ASSERT_EQ(summaries.size(), order.size());
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        EXPECT_EQ(summaries[i].scheme, order[i]);
        EXPECT_EQ(summaries[i].summary.runs, 2u);
        EXPECT_GT(summaries[i].summary.invocations.mean, 0.0);
    }
}
