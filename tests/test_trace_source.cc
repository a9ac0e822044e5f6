/**
 * @file
 * Byte-identity lockdown for the workload boundary (sim/trace_source).
 *
 * The contract under test: a StreamingWorkloadSource — chunked row
 * ingest, external-memory spill sort, k-way window merge — feeds the
 * engine EXACTLY the arrival windows a MaterializedTraceSource built
 * from the same workload would, record for record, and therefore
 * every simulation result is identical between the two paths:
 * CSV-ingested workloads, forced-spill chunking, repeated runs off one
 * rewound source, and concurrent streamed runs on outside threads.
 * Satellites pin the streamed profile matching, the SeBS benchmark
 * categories, and the line/column diagnostics of the chunked CSV
 * reader.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/units.hh"
#include "core/icebreaker.hh"
#include "harness/registry.hh"
#include "policies/openwhisk_policy.hh"
#include "sim/simulator.hh"
#include "sim/trace_source.hh"
#include "trace/azure_loader.hh"
#include "trace/stream_reader.hh"
#include "trace/synthetic.hh"
#include "workload/benchmark_suite.hh"
#include "workload/profile_matcher.hh"

namespace
{

using namespace iceb;
using namespace iceb::sim;

/** Small but structurally rich workload config shared by the tests. */
trace::SyntheticConfig
smallConfig()
{
    trace::SyntheticConfig config;
    config.num_functions = 40;
    config.num_intervals = 48;
    return config;
}

ClusterConfig
testCluster()
{
    ClusterConfig config = defaultHeterogeneousCluster();
    config.spec(Tier::HighEnd).server_count = 6;
    config.spec(Tier::HighEnd).memory_per_server_mb = 4096;
    config.spec(Tier::LowEnd).server_count = 9;
    config.spec(Tier::LowEnd).memory_per_server_mb = 3072;
    return config;
}

std::vector<workload::FunctionProfile>
profilesForTrace(const trace::Trace &tr)
{
    const workload::BenchmarkSuite suite =
        workload::BenchmarkSuite::sebs();
    return workload::ProfileMatcher(suite).profilesFor(tr);
}

/** Exact (bitwise for floats) equality of two runs' metrics. */
void
expectMetricsIdentical(const SimulationMetrics &a,
                       const SimulationMetrics &b)
{
    EXPECT_EQ(a.invocations, b.invocations);
    EXPECT_EQ(a.cold_starts, b.cold_starts);
    EXPECT_EQ(a.warm_starts, b.warm_starts);
    EXPECT_EQ(a.cold_no_container, b.cold_no_container);
    EXPECT_EQ(a.cold_all_busy, b.cold_all_busy);
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
        EXPECT_EQ(a.per_function[fn].cold_starts,
                  b.per_function[fn].cold_starts);
        EXPECT_EQ(a.per_function[fn].sum_service_ms,
                  b.per_function[fn].sum_service_ms);
    }
    for (int t = 0; t < kNumTiers; ++t) {
        EXPECT_EQ(a.keep_alive[t].successful_cost,
                  b.keep_alive[t].successful_cost);
        EXPECT_EQ(a.keep_alive[t].wasteful_cost,
                  b.keep_alive[t].wasteful_cost);
        EXPECT_EQ(a.keep_alive[t].wasted_mb_ms,
                  b.keep_alive[t].wasted_mb_ms);
    }
}

/** Pull every window of @p source into owned records, in order. */
std::vector<std::vector<ArrivalRecord>>
drainWindows(TraceSource &source)
{
    source.beginRun();
    std::vector<std::vector<ArrivalRecord>> windows;
    for (std::size_t iv = 0; iv < source.numIntervals(); ++iv) {
        const ArrivalWindow window =
            source.intervalWindow(static_cast<IntervalIndex>(iv));
        windows.emplace_back(window.data, window.data + window.size);
    }
    return windows;
}

void
expectWindowsIdentical(
    const std::vector<std::vector<ArrivalRecord>> &a,
    const std::vector<std::vector<ArrivalRecord>> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t iv = 0; iv < a.size(); ++iv) {
        ASSERT_EQ(a[iv].size(), b[iv].size()) << "interval " << iv;
        for (std::size_t r = 0; r < a[iv].size(); ++r) {
            EXPECT_EQ(a[iv][r].time, b[iv][r].time)
                << "interval " << iv << " record " << r;
            EXPECT_EQ(a[iv][r].rank, b[iv][r].rank)
                << "interval " << iv << " record " << r;
            EXPECT_EQ(a[iv][r].fn, b[iv][r].fn)
                << "interval " << iv << " record " << r;
        }
    }
}

// ------------------------------------------------- window byte-identity

TEST(TraceSourceTest, StreamedWindowsMatchMaterialized)
{
    const trace::SyntheticConfig config = smallConfig();
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();
    MaterializedTraceSource materialized(tr, SimulatorOptions{}.seed);

    trace::SyntheticRowStream rows(config);
    StreamingWorkloadSource streamed(rows);

    EXPECT_EQ(streamed.numFunctions(), materialized.numFunctions());
    EXPECT_EQ(streamed.numIntervals(), materialized.numIntervals());
    EXPECT_EQ(streamed.intervalMs(), materialized.intervalMs());
    EXPECT_EQ(streamed.totalArrivals(), materialized.totalArrivals());
    EXPECT_EQ(streamed.maxIntervalArrivals(),
              materialized.maxIntervalArrivals());

    expectWindowsIdentical(drainWindows(streamed),
                           drainWindows(materialized));
}

TEST(TraceSourceTest, ForcedSpillWindowsIdentical)
{
    // Both the spilled chunks and the single in-memory run go through
    // the same interval sort, so each is checked against the
    // materialized builder, which sorts independently. Chunk size 1
    // puts every record in its own run; 7 splits bursts and functions
    // across runs at irregular points.
    const trace::SyntheticConfig config = smallConfig();
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();
    MaterializedTraceSource materialized(tr, SimulatorOptions{}.seed);
    const auto expected = drainWindows(materialized);

    trace::SyntheticRowStream rows(config);
    StreamingWorkloadSource in_memory(rows);
    EXPECT_EQ(in_memory.spillRuns(), 0u);
    expectWindowsIdentical(drainWindows(in_memory), expected);

    for (const std::size_t chunk : {1u, 7u, 64u}) {
        SCOPED_TRACE("chunk_records " + std::to_string(chunk));
        StreamingSourceOptions tiny;
        tiny.chunk_records = chunk;
        tiny.read_records = 16;
        trace::SyntheticRowStream chunk_rows(config);
        StreamingWorkloadSource spilled(chunk_rows, tiny);

        // The tiny chunk must actually exercise the external path.
        EXPECT_EQ(spilled.spillRuns(),
                  (spilled.totalArrivals() + chunk - 1) / chunk);
        EXPECT_GT(spilled.spilledBytes(), 0u);
        expectWindowsIdentical(drainWindows(spilled), expected);
    }
}

TEST(TraceSourceTest, BeginRunRewindsStreamedSource)
{
    StreamingSourceOptions tiny;
    tiny.chunk_records = 64;
    tiny.read_records = 16;
    trace::SyntheticRowStream rows(smallConfig());
    StreamingWorkloadSource source(rows, tiny);

    const auto first = drainWindows(source);
    const auto second = drainWindows(source);
    expectWindowsIdentical(first, second);
}

// -------------------------------------------- end-to-end byte-identity

TEST(TraceSourceTest, StreamedRunMatchesMaterializedRun)
{
    const trace::SyntheticConfig config = smallConfig();
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();
    const std::vector<workload::FunctionProfile> profiles =
        profilesForTrace(tr);
    const ClusterConfig cluster = testCluster();

    for (const char *scheme : {"openwhisk", "wild", "icebreaker"}) {
        std::unique_ptr<Policy> mat_policy =
            harness::makePolicyByName(scheme);
        const SimulationMetrics reference = runSimulation(
            tr, profiles, cluster, *mat_policy, {});

        StreamingSourceOptions tiny; // force the spill path too
        tiny.chunk_records = 64;
        trace::SyntheticRowStream rows(config);
        StreamingWorkloadSource source(rows, tiny);
        std::unique_ptr<Policy> stream_policy =
            harness::makePolicyByName(scheme);
        const SimulationMetrics streamed = runSimulation(
            source, profiles, cluster, *stream_policy, {});

        SCOPED_TRACE(scheme);
        expectMetricsIdentical(reference, streamed);
    }
}

TEST(TraceSourceTest, MatchedStreamedProfilesAgreeWithTracePath)
{
    const trace::SyntheticConfig config = smallConfig();
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();
    trace::SyntheticRowStream rows(config);
    StreamingWorkloadSource source(rows);

    const workload::BenchmarkSuite suite =
        workload::BenchmarkSuite::sebs();
    const workload::ProfileMatcher matcher(suite);
    const auto from_trace = matcher.profilesFor(tr);
    const auto from_stream = matchStreamedProfiles(source, matcher);

    ASSERT_EQ(from_trace.size(), from_stream.size());
    for (std::size_t fn = 0; fn < from_trace.size(); ++fn) {
        EXPECT_EQ(from_trace[fn].name, from_stream[fn].name);
        EXPECT_EQ(from_trace[fn].memory_mb, from_stream[fn].memory_mb);
        EXPECT_EQ(from_trace[fn].exec_ms, from_stream[fn].exec_ms);
        EXPECT_EQ(from_trace[fn].cold_start_ms,
                  from_stream[fn].cold_start_ms);
    }
}

TEST(TraceSourceDeathTest, OraclePolicyNeedsMaterializedTrace)
{
    trace::SyntheticRowStream rows(smallConfig());
    StreamingWorkloadSource source(rows);
    const std::vector<workload::FunctionProfile> profiles =
        matchStreamedProfiles(
            source, workload::ProfileMatcher(
                        workload::BenchmarkSuite::sebs()));
    std::unique_ptr<Policy> oracle = harness::makePolicyByName("oracle");
    EXPECT_EXIT((void)runSimulation(source, profiles, testCluster(),
                                    *oracle, {}),
                ::testing::ExitedWithCode(1), "materialized trace");
}

// ------------------------------------------------ CSV golden identity

TEST(TraceSourceTest, CsvStreamMatchesMaterializedLoader)
{
    // The fixture CSV is a serialized small synthetic trace: the
    // loader path materializes it, the stream path never does; both
    // must produce identical runs.
    trace::SyntheticConfig config = smallConfig();
    config.num_functions = 24;
    const trace::Trace original =
        trace::SyntheticTraceGenerator(config).generate();
    std::ostringstream csv;
    trace::writeAzureCsv(csv, original);

    std::istringstream loader_in(csv.str());
    const trace::Trace loaded = trace::loadAzureCsv(loader_in);
    const std::vector<workload::FunctionProfile> profiles =
        profilesForTrace(loaded);
    const ClusterConfig cluster = testCluster();

    policies::OpenWhiskPolicy mat_policy;
    const SimulationMetrics reference =
        runSimulation(loaded, profiles, cluster, mat_policy);

    std::istringstream stream_in(csv.str());
    trace::AzureCsvRowStream rows(stream_in);
    StreamingSourceOptions tiny;
    tiny.chunk_records = 32;
    StreamingWorkloadSource source(rows, tiny);
    EXPECT_GT(source.spillRuns(), 0u);
    policies::OpenWhiskPolicy stream_policy;
    const SimulationMetrics streamed =
        runSimulation(source, profiles, cluster, stream_policy);
    expectMetricsIdentical(reference, streamed);
}

TEST(AzureCsvStreamDeathTest, ReportsLineAndColumnOfBadCount)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,1,2\n"
        "a,256,900,1,2\n"
        "b,256,900,-4,1\n");
    trace::AzureCsvRowStream rows(in);
    trace::FunctionRow row;
    ASSERT_TRUE(rows.next(row));
    EXPECT_EXIT((void)rows.next(row), ::testing::ExitedWithCode(1),
                "line 3, column 4.*negative");
}

TEST(AzureCsvStreamDeathTest, ReportsLineOfShortRow)
{
    std::istringstream in(
        "name,memory_mb,avg_exec_ms,1,2\n"
        "a,256,900,1,2\n"
        "b,256,900,1\n");
    trace::AzureCsvRowStream rows(in);
    trace::FunctionRow row;
    ASSERT_TRUE(rows.next(row));
    EXPECT_EXIT((void)rows.next(row), ::testing::ExitedWithCode(1),
                "line 3.*minute columns");
}

// ------------------------------------------------- threaded identity
// (Runs under the CI TSan job's TraceSource* filter: each outside
// thread's SyntheticRowStream fills its batches on the shared
// executor while the other threads do the same.)

TEST(TraceSourceTest, ConcurrentStreamedRunsAgree)
{
    const trace::SyntheticConfig config = smallConfig();
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();
    const std::vector<workload::FunctionProfile> profiles =
        profilesForTrace(tr);
    const ClusterConfig cluster = testCluster();

    core::IceBreakerPolicy reference_policy;
    const SimulationMetrics reference =
        runSimulation(tr, profiles, cluster, reference_policy);

    // Each outer thread owns its own source and policy (the runner's
    // usage pattern).
    std::vector<SimulationMetrics> results(3);
    std::vector<std::thread> pool;
    for (std::size_t t = 0; t < results.size(); ++t) {
        pool.emplace_back([&, t] {
            trace::SyntheticRowStream rows(config);
            StreamingWorkloadSource source(rows);
            core::IceBreakerPolicy policy;
            results[t] = runSimulation(source, profiles, cluster, policy);
        });
    }
    for (std::thread &worker : pool)
        worker.join();
    for (std::size_t t = 0; t < results.size(); ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        expectMetricsIdentical(reference, results[t]);
    }
}

// ------------------------------------------------- SeBS profile pool

TEST(SebsSuiteTest, CategoriesCoverThePool)
{
    std::size_t total = 0;
    for (std::size_t c = 0; c < workload::kNumSebsCategories; ++c) {
        const auto category = static_cast<workload::SebsCategory>(c);
        const auto profiles = workload::sebsCategoryProfiles(category);
        ASSERT_FALSE(profiles.empty());
        const std::string prefix =
            std::string("sebs/") + workload::sebsCategoryName(category);
        for (const workload::FunctionProfile &p : profiles) {
            EXPECT_EQ(p.name.rfind(prefix, 0), 0u)
                << p.name << " not under " << prefix;
            EXPECT_GT(p.memory_mb, 0);
        }
        total += profiles.size();
    }
    const workload::BenchmarkSuite suite =
        workload::BenchmarkSuite::sebs();
    EXPECT_EQ(suite.size(), total);

    // The pool must keep the paper's headline property alive: a
    // meaningful fraction of functions serve a warm start on the
    // low-end tier faster than a cold start on the high-end tier.
    EXPECT_GT(suite.fractionWarmLowBeatsColdHigh(), 0.4);
    EXPECT_LT(suite.fractionWarmLowBeatsColdHigh(), 1.0);
}

TEST(SebsSuiteTest, AzureScalePresetSpansTheSebsPool)
{
    // The Azure-scale preset's hint ranges must reach every SeBS
    // category, so the matcher spreads functions across the pool.
    const trace::SyntheticConfig config = trace::azureScaleConfig(512, 60);
    const workload::BenchmarkSuite suite =
        workload::BenchmarkSuite::sebs();
    const workload::ProfileMatcher matcher(suite);
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(config).generate();

    std::vector<bool> hit(suite.size(), false);
    for (const auto &fn : tr.functions())
        hit[matcher.matchIndex(
            fn.memory_mb > 0 ? fn.memory_mb : 256,
            fn.avg_exec_ms > 0 ? fn.avg_exec_ms : 1000)] = true;
    std::size_t distinct = 0;
    for (bool h : hit)
        distinct += h ? 1 : 0;
    // All four categories (11 profiles) should be represented.
    EXPECT_GE(distinct, 8u);
}

} // namespace
