/**
 * @file
 * The serving boundary: DecisionEngine transparency (bare batch ==
 * engine-wrapped batch == ReplayDriver, bit for bit), the standalone
 * façade running online schemes with no trace in sight, the oracle being
 * rejected at the boundary, streamed probe export, and engine-wrapped
 * runner grids staying deterministic across thread counts.
 */

#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/units.hh"
#include "core/icebreaker.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "obs/histogram.hh"
#include "obs/probes.hh"
#include "obs/recorder.hh"
#include "policies/faascache_policy.hh"
#include "policies/openwhisk_policy.hh"
#include "policies/oracle_policy.hh"
#include "policies/wild_policy.hh"
#include "serve/drivers.hh"
#include "serve/stats_exporter.hh"

namespace
{

using namespace iceb;

// ------------------------------------------------- boundary statics
//
// The observation contract, checked where the compiler can see it: an
// online policy's initialisation context carries no trace handle and
// no arrival schedule, and only the Oracle opts into the privileged
// OfflinePolicy base.

template <typename T, typename = void>
struct HasTraceMember : std::false_type
{
};
template <typename T>
struct HasTraceMember<T, std::void_t<decltype(std::declval<T>().trace)>>
    : std::true_type
{
};

template <typename T, typename = void>
struct HasScheduleMember : std::false_type
{
};
template <typename T>
struct HasScheduleMember<
    T, std::void_t<decltype(std::declval<T>().arrival_schedule)>>
    : std::true_type
{
};

static_assert(!HasTraceMember<sim::SimContext>::value,
              "SimContext must not expose the trace to policies");
static_assert(!HasScheduleMember<sim::SimContext>::value,
              "SimContext must not expose the arrival schedule");
static_assert(!std::is_base_of_v<sim::OfflinePolicy,
                                 policies::OpenWhiskPolicy>,
              "OpenWhisk is an online scheme");
static_assert(!std::is_base_of_v<sim::OfflinePolicy, policies::WildPolicy>,
              "Serverless-in-the-Wild is an online scheme");
static_assert(!std::is_base_of_v<sim::OfflinePolicy,
                                 policies::FaasCachePolicy>,
              "FaasCache is an online scheme");
static_assert(!std::is_base_of_v<sim::OfflinePolicy,
                                 core::IceBreakerPolicy>,
              "IceBreaker is an online scheme");
static_assert(std::is_base_of_v<sim::OfflinePolicy, policies::OraclePolicy>,
              "the Oracle is the one offline scheme");

// --------------------------------------------------------- fixtures

/** Deterministic bursty workload shared by the equivalence tests. */
harness::Workload
serveWorkload(std::size_t functions = 24, std::size_t intervals = 120)
{
    trace::SyntheticConfig config;
    config.num_functions = functions;
    config.num_intervals = intervals;
    return harness::makeWorkload(config);
}

/**
 * Minimal cluster for the standalone façade tests: grants every
 * warm-up, remembers what was asked.
 */
class GrantAllWarmup final : public sim::WarmupInterface
{
  public:
    std::size_t
    ensureWarm(FunctionId fn, Tier tier, std::size_t count,
               TimeMs expiry) override
    {
        (void)fn;
        (void)tier;
        (void)expiry;
        warm_calls += count;
        return count;
    }
    std::size_t
    ensureWarmEvicting(FunctionId fn, Tier tier, std::size_t count,
                       TimeMs expiry, sim::Policy &policy) override
    {
        (void)policy;
        return ensureWarm(fn, tier, count, expiry);
    }
    void
    schedulePrewarm(FunctionId fn, Tier tier, TimeMs start_time,
                    TimeMs expiry) override
    {
        (void)fn;
        (void)tier;
        (void)start_time;
        (void)expiry;
        ++prewarm_calls;
    }
    MemoryMb vacantMemoryMb(Tier tier) const override
    {
        (void)tier;
        return 64 * 1024;
    }
    MemoryMb totalMemoryMb(Tier tier) const override
    {
        (void)tier;
        return 64 * 1024;
    }
    std::size_t warmCount(FunctionId fn, Tier tier) const override
    {
        (void)fn;
        (void)tier;
        return 0;
    }
    TimeMs now() const override { return now_ms; }

    TimeMs now_ms = 0;
    std::size_t warm_calls = 0;
    std::size_t prewarm_calls = 0;
};

// ------------------------------------------------------ equivalence

TEST(ServeEquivalenceTest, EngineWrappedBatchAndReplayMatchBareExactly)
{
    const harness::Workload workload = serveWorkload();
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    for (const char *scheme :
         {"openwhisk", "wild", "faascache", "icebreaker"}) {
        SCOPED_TRACE(scheme);

        const std::unique_ptr<sim::Policy> bare =
            harness::makePolicyByName(scheme);
        const std::uint64_t bare_hash =
            harness::digestMetrics(sim::runSimulation(
                workload.trace, workload.profiles, cluster, *bare));

        const std::unique_ptr<serve::DecisionEngine> batch_engine =
            harness::makeDecisionEngineByName(scheme);
        EXPECT_EQ(harness::digestMetrics(sim::runSimulation(
                      workload.trace, workload.profiles, cluster,
                      *batch_engine)),
                  bare_hash);

        const std::unique_ptr<serve::DecisionEngine> replay_engine =
            harness::makeDecisionEngineByName(scheme);
        serve::ReplayDriver replay(workload.trace, workload.profiles,
                                   cluster, *replay_engine);
        EXPECT_EQ(harness::digestMetrics(replay.run()), bare_hash);
    }
}

TEST(ServeEquivalenceTest, ReplayIsIndependentOfAcceleration)
{
    const harness::Workload workload = serveWorkload(8, 10);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    const std::unique_ptr<serve::DecisionEngine> fast =
        harness::makeDecisionEngineByName("icebreaker");
    serve::ReplayOptions fast_options; // acceleration 0: no pacing
    serve::ReplayDriver fast_replay(workload.trace, workload.profiles,
                                    cluster, *fast, fast_options);
    const std::uint64_t fast_hash =
        harness::digestMetrics(fast_replay.run());

    // Heavily accelerated but PACED: the wall clock participates in
    // scheduling, and the result still must not change.
    const std::unique_ptr<serve::DecisionEngine> paced =
        harness::makeDecisionEngineByName("icebreaker");
    serve::ReplayOptions paced_options;
    paced_options.acceleration = 4.0e6; // ~0.15 wall-ms per interval
    serve::ReplayDriver paced_replay(workload.trace, workload.profiles,
                                     cluster, *paced, paced_options);
    EXPECT_EQ(harness::digestMetrics(paced_replay.run()), fast_hash);
}

// -------------------------------------------------------- streaming

TEST(ServeStreamingTest, ProbeCsvStreamsIncrementallyWithSameRowSet)
{
    const harness::Workload workload = serveWorkload(8, 40);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    // Batch reference: same run through runSimulation with a recorder,
    // exported through the batch writer.
    obs::ObsConfig obs_config;
    obs_config.probes = true;
    obs::RunRecorder batch_recorder(obs_config);
    sim::SimulatorOptions batch_options;
    batch_options.recorder = &batch_recorder;
    const std::unique_ptr<sim::Policy> bare =
        harness::makePolicyByName("icebreaker");
    sim::runSimulation(workload.trace, workload.profiles, cluster,
                       *bare, batch_options);
    std::ostringstream batch_csv;
    obs::writeProbeCsv(batch_csv,
                       {{"live", batch_recorder.probeTableIfEnabled()}});

    // Streamed: flushed per interval into a growing string.
    const std::unique_ptr<serve::DecisionEngine> engine =
        harness::makeDecisionEngineByName("icebreaker");
    std::ostringstream streamed_csv;
    std::vector<std::size_t> sizes_at_intervals;
    serve::ReplayOptions options;
    options.run_label = "live";
    options.probe_csv = &streamed_csv;
    options.on_interval = [&](const serve::ReplayProgress &) {
        sizes_at_intervals.push_back(streamed_csv.str().size());
    };
    serve::ReplayDriver replay(workload.trace, workload.profiles,
                               cluster, *engine, options);
    replay.run();

    // Incremental: the stream grew while the replay was in flight,
    // not in one final dump.
    ASSERT_GT(sizes_at_intervals.size(), 2u);
    EXPECT_GT(sizes_at_intervals[1], 0u);
    EXPECT_GT(sizes_at_intervals.back(), sizes_at_intervals[1]);

    // Same rows: the streamer interleaves interval and forecast rows
    // by flush point, so compare as sorted multisets of lines.
    const auto sortedLines = [](const std::string &text) {
        std::vector<std::string> lines;
        std::istringstream in(text);
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
        std::sort(lines.begin(), lines.end());
        return lines;
    };
    EXPECT_EQ(sortedLines(streamed_csv.str()),
              sortedLines(batch_csv.str()));
}

// --------------------------------------------------------- serving

TEST(ServeFacadeTest, OnlineSchemesServeWithNoTraceAnywhere)
{
    // Note what this test never constructs: a trace::Trace, an
    // arrival schedule, a Simulator. The engine is fed observations
    // through the façade alone, the way a live front end would.
    workload::FunctionProfile profile;
    profile.name = "served";
    profile.memory_mb = 256;
    profile.cold_start_ms = {1000, 2000};
    profile.exec_ms = {400, 800};
    const std::vector<workload::FunctionProfile> profiles{
        profile, profile, profile};
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    for (const char *scheme :
         {"openwhisk", "wild", "faascache", "icebreaker"}) {
        SCOPED_TRACE(scheme);
        const std::unique_ptr<serve::DecisionEngine> engine =
            harness::makeDecisionEngineByName(scheme);

        sim::SimContext ctx;
        ctx.num_functions = profiles.size();
        ctx.profiles = &profiles;
        ctx.cluster = &cluster;
        ctx.interval_ms = kMsPerMinute;
        engine->initialize(ctx);

        GrantAllWarmup facade_cluster;
        Rng rng(0x5E27E);
        for (IntervalIndex interval = 0; interval < 30; ++interval) {
            facade_cluster.now_ms = interval * kMsPerMinute;
            engine->advanceInterval(facade_cluster);
            // Function 0 arrives every interval, 1 every third, 2
            // at random; outcomes are reported like a front end
            // observing its own dispatches.
            engine->pushArrival(0);
            engine->onExecutionStart(0, Tier::HighEnd, false,
                                     facade_cluster.now_ms);
            if (interval % 3 == 0) {
                engine->pushArrival(1, 2);
                engine->onExecutionStart(1, Tier::LowEnd, true,
                                         facade_cluster.now_ms);
            }
            if (rng.uniformInt(0, 2) == 0)
                engine->pushArrival(2);
        }
        EXPECT_EQ(engine->servedIntervals(), 30);

        // Every scheme must at least survive; the predictive ones
        // must have acted on the perfectly regular function 0.
        const std::vector<serve::Decision> decisions =
            engine->drainDecisions();
        EXPECT_EQ(decisions.size(), engine->decisionCount());
        if (std::string(scheme) == "wild" ||
            std::string(scheme) == "icebreaker") {
            EXPECT_GT(decisions.size(), 0u);
            bool warmed_regular = false;
            for (const serve::Decision &d : decisions) {
                EXPECT_LT(d.interval, 30);
                EXPECT_GT(d.count, 0u);
                if (d.fn == 0)
                    warmed_regular = true;
            }
            EXPECT_TRUE(warmed_regular);
        }
    }
}

TEST(ServeFacadeTest, ObservationsReachThePolicyPerClosedInterval)
{
    /** Records every observation batch it is pushed. */
    class ObservingPolicy final : public sim::Policy
    {
      public:
        const char *name() const override { return "observing"; }
        void
        onIntervalObserved(const sim::IntervalObservation &closed)
            override
        {
            std::vector<std::uint32_t> counts;
            for (FunctionId fn = 0; fn < closed.num_functions; ++fn)
                counts.push_back(closed.arrivalsFor(fn));
            observed.push_back(std::move(counts));
            intervals.push_back(closed.interval);
        }
        TimeMs
        keepAliveAfterExecutionMs(FunctionId, Tier, TimeMs) override
        {
            return 0;
        }
        std::vector<std::vector<std::uint32_t>> observed;
        std::vector<IntervalIndex> intervals;
    };

    auto owned = std::make_unique<ObservingPolicy>();
    ObservingPolicy *policy = owned.get();
    serve::DecisionEngine engine(std::move(owned));

    const std::vector<workload::FunctionProfile> profiles(2);
    sim::SimContext ctx;
    ctx.num_functions = 2;
    ctx.profiles = &profiles;
    ctx.interval_ms = kMsPerMinute;
    engine.initialize(ctx);

    GrantAllWarmup cluster;
    engine.advanceInterval(cluster); // opens interval 0, nothing closed
    engine.pushArrival(0, 3);
    engine.pushArrival(1);
    engine.advanceInterval(cluster); // closes interval 0
    engine.pushArrival(1, 2);
    engine.advanceInterval(cluster); // closes interval 1

    ASSERT_EQ(policy->observed.size(), 2u);
    EXPECT_EQ(policy->intervals, (std::vector<IntervalIndex>{0, 1}));
    EXPECT_EQ(policy->observed[0],
              (std::vector<std::uint32_t>{3, 1}));
    EXPECT_EQ(policy->observed[1],
              (std::vector<std::uint32_t>{0, 2}));
}

TEST(ServeFacadeTest, BadArrivalsAreRejectedNotFatal)
{
    // Arrivals come from outside the process: an unknown function id,
    // or any arrival before initialize(), is refused and counted
    // instead of aborting a live server.
    const std::unique_ptr<serve::DecisionEngine> engine =
        harness::makeDecisionEngineByName("openwhisk");
    EXPECT_FALSE(engine->pushArrival(0));
    EXPECT_EQ(engine->rejectedArrivals(), 1u);

    const std::vector<workload::FunctionProfile> profiles(2);
    const sim::ClusterConfig cluster_config =
        sim::defaultHeterogeneousCluster();
    sim::SimContext ctx;
    ctx.num_functions = profiles.size();
    ctx.profiles = &profiles;
    ctx.cluster = &cluster_config;
    ctx.interval_ms = kMsPerMinute;
    engine->initialize(ctx);

    GrantAllWarmup cluster;
    engine->advanceInterval(cluster);
    EXPECT_FALSE(engine->pushArrival(2, 5));
    EXPECT_FALSE(engine->pushArrival(kInvalidFunction));
    EXPECT_EQ(engine->rejectedArrivals(), 7u);
    EXPECT_TRUE(engine->pushArrival(1, 2));
    EXPECT_EQ(engine->rejectedArrivals(), 7u);
    // A push that would wrap the interval's 32-bit count is refused
    // too; the count may still reach its largest value.
    EXPECT_FALSE(engine->pushArrival(1, 4294967294u));
    EXPECT_EQ(engine->rejectedArrivals(), 4294967301u);
    EXPECT_TRUE(engine->pushArrival(1, 4294967293u));
    EXPECT_EQ(engine->rejectedArrivals(), 4294967301u);
    engine->advanceInterval(cluster);
    EXPECT_EQ(engine->servedIntervals(), 2);
}

TEST(ServeFacadeTest, OracleIsRejectedAtTheServingBoundary)
{
    EXPECT_DEATH(harness::makeDecisionEngineByName("oracle"),
                 "serving");
}

// ----------------------------------------------------------- runner

TEST(ServeRunnerTest, EngineWrappedGridIsThreadCountInvariant)
{
    // Engine-wrapped schemes registered as first-class registry
    // citizens, racing their bare counterparts in one grid. The
    // wrapped cells must equal the bare cells bit for bit, at every
    // thread count (this is also the TSan surface for the engine).
    const harness::ScopedPolicyRegistration wrapped_ib(
        "icebreaker-engine",
        [] { return harness::makeDecisionEngineByName("icebreaker"); });
    const harness::ScopedPolicyRegistration wrapped_wild(
        "wild-engine",
        [] { return harness::makeDecisionEngineByName("wild"); });

    const harness::Workload workload = serveWorkload(16, 60);
    const std::vector<harness::SweepPoint> points = {
        {"", sim::defaultHeterogeneousCluster()}};
    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        {"icebreaker", "icebreaker-engine", "wild", "wild-engine"},
        workload, points, harness::kDefaultBaseSeed, 2);

    const std::vector<harness::RunResult> serial =
        harness::ExperimentRunner(1).run(grid);
    const std::vector<harness::RunResult> threaded =
        harness::ExperimentRunner(4).run(grid);

    ASSERT_EQ(serial.size(), grid.size());
    ASSERT_EQ(threaded.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        EXPECT_EQ(harness::digestMetrics(serial[i].metrics),
                  harness::digestMetrics(threaded[i].metrics));
    }
    // Bare vs engine-wrapped, replicate by replicate.
    for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_EQ(harness::digestMetrics(serial[r].metrics),
                  harness::digestMetrics(serial[2 + r].metrics));
        EXPECT_EQ(harness::digestMetrics(serial[4 + r].metrics),
                  harness::digestMetrics(serial[6 + r].metrics));
    }
}

// ---------------------------------------------------- stats export

/**
 * A known snapshot plus the histogram set it borrows. snap.histograms
 * is wired by each test AFTER the fixture lands in its final storage
 * (the pointer must not survive a copy of the fixture).
 */
struct StatsSnapshotFixture
{
    obs::HistogramSet set;
    serve::StatsSnapshot snap;
};

StatsSnapshotFixture
statsFixture()
{
    StatsSnapshotFixture f;
    f.set.cold_start_ms[0].record(1200);
    f.set.cold_start_ms[0].record(800);
    f.set.wait_queue_ms[1].record(15);
    f.snap.run_label = "unit";
    f.snap.intervals_started = 7;
    f.snap.sim_time_ms = 420'000;
    f.snap.decisions = 6;
    f.snap.counters.invocations = 100;
    f.snap.counters.cold_starts = 9;
    f.snap.counters.warm_starts = 91;
    f.snap.counters.wait_queue = 3;
    f.snap.counters.keep_alive_cost = {1.25, 0.5};
    return f;
}

TEST(StatsExporterTest, RenderersEmitCountersAndHistograms)
{
    StatsSnapshotFixture f = statsFixture();
    f.snap.histograms = &f.set;

    const std::string prom = serve::renderPrometheus(f.snap);
    EXPECT_NE(prom.find("# TYPE icebreaker_invocations_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("icebreaker_invocations_total{run=\"unit\"} "
                        "100"),
              std::string::npos);
    EXPECT_NE(prom.find("icebreaker_keep_alive_cost{run=\"unit\","
                        "tier=\"high-end\"} 1.250000"),
              std::string::npos);
    EXPECT_NE(prom.find("series=\"cold_start_ms\",tier=\"high-end\","
                        "quantile=\"0.95\""),
              std::string::npos);
    // Wall timers carry tier="all" so every sample line has the
    // same label set (Prometheus requirement for one metric name).
    EXPECT_NE(prom.find("series=\"decision_wall_us\",tier=\"all\""),
              std::string::npos);

    const std::string json = serve::renderStatsJson(f.snap);
    EXPECT_NE(json.find("\"invocations\":100"), std::string::npos);
    EXPECT_NE(json.find("\"wait_queue\":3"), std::string::npos);
    EXPECT_NE(json.find("\"keep_alive_cost\":{\"high-end\":1.250000,"
                        "\"low-end\":0.500000}"),
              std::string::npos);
    // Histogram keys use '/' (never '.'): the schema checker splits
    // key paths on dots.
    EXPECT_NE(json.find("\"cold_start_ms/high-end\":{\"count\":2,"),
              std::string::npos);
    EXPECT_EQ(json.find("cold_start_ms.high-end"), std::string::npos);
    // Every series appears even when empty (stable schema).
    EXPECT_NE(json.find("\"setup_attach_ms/low-end\":{\"count\":0,"),
              std::string::npos);
    EXPECT_EQ(json.back(), '\n');
}

TEST(StatsExporterTest, JsonFileModeRewritesPerUpdate)
{
    StatsSnapshotFixture f = statsFixture();
    f.snap.histograms = &f.set;
    serve::StatsExporterOptions options;
    options.json_path = testing::TempDir() + "/stats_unit.json";

    serve::StatsExporter exporter(options);
    EXPECT_EQ(exporter.port(), -1); // HTTP off by default
    exporter.update(f.snap);
    f.snap.counters.invocations = 250;
    exporter.update(f.snap);

    std::ifstream in(options.json_path, std::ios::binary);
    const std::string file((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(file, exporter.jsonText());
    EXPECT_NE(file.find("\"invocations\":250"), std::string::npos);
    EXPECT_EQ(file.find("\"invocations\":100"), std::string::npos);
}

TEST(StatsExporterTest, ServesLatestPrometheusTextOverHttp)
{
    StatsSnapshotFixture f = statsFixture();
    f.snap.histograms = &f.set;
    serve::StatsExporterOptions options;
    options.http_port = 0; // ephemeral

    serve::StatsExporter exporter(options);
    if (exporter.port() < 0)
        GTEST_SKIP() << "loopback bind unavailable in this sandbox";
    exporter.update(f.snap);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(exporter.port()));
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    const char request[] = "GET /metrics HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, request, sizeof(request) - 1, 0), 0);

    std::string response;
    char buf[4096];
    ssize_t n;
    while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);

    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
    EXPECT_NE(response.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(response.find("icebreaker_invocations_total{run="
                            "\"unit\"} 100"),
              std::string::npos);
}

TEST(StatsExporterTest, ReportsRejectedArrivals)
{
    // An arrival for an unknown function id, pushed while a replay
    // runs, is refused at the boundary; the next snapshot reports the
    // count in both renderings.
    const harness::Workload workload = serveWorkload(4, 6);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    serve::StatsExporter exporter(serve::StatsExporterOptions{});
    const std::unique_ptr<serve::DecisionEngine> engine =
        harness::makeDecisionEngineByName("openwhisk");
    const auto unknown =
        static_cast<FunctionId>(workload.trace.numFunctions());
    serve::ReplayOptions replay_options;
    replay_options.stats = &exporter;
    replay_options.on_interval = [&](const serve::ReplayProgress &p) {
        if (p.interval == 0) {
            EXPECT_FALSE(engine->pushArrival(unknown));
        }
    };
    serve::ReplayDriver replay(workload.trace, workload.profiles,
                               cluster, *engine, replay_options);
    replay.run();

    EXPECT_EQ(engine->rejectedArrivals(), 1u);
    EXPECT_NE(exporter.prometheusText().find(
                  "icebreaker_rejected_arrivals_total{run=\"replay\"} 1\n"),
              std::string::npos);
    EXPECT_NE(exporter.jsonText().find("\"rejected_arrivals\":1,"),
              std::string::npos);
}

TEST(StatsExporterTest, ReplayPublishesSnapshotsWithoutPerturbing)
{
    const harness::Workload workload = serveWorkload(8, 20);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    // Reference: the same replay with no exporter attached.
    const std::unique_ptr<serve::DecisionEngine> bare =
        harness::makeDecisionEngineByName("icebreaker");
    serve::ReplayDriver bare_replay(workload.trace, workload.profiles,
                                    cluster, *bare);
    const sim::SimulationMetrics reference = bare_replay.run();

    serve::StatsExporterOptions options;
    options.json_path = testing::TempDir() + "/stats_replay.json";
    serve::StatsExporter exporter(options);
    const std::unique_ptr<serve::DecisionEngine> engine =
        harness::makeDecisionEngineByName("icebreaker");
    serve::ReplayOptions replay_options;
    replay_options.stats = &exporter;
    serve::ReplayDriver replay(workload.trace, workload.profiles,
                               cluster, *engine, replay_options);
    const sim::SimulationMetrics metrics = replay.run();

    // Attaching the exporter enables histograms but must not change
    // the simulation (strictly write-only observation).
    EXPECT_EQ(harness::digestMetrics(metrics),
              harness::digestMetrics(reference));

    // The final snapshot carries the whole run.
    const std::string json = exporter.jsonText();
    EXPECT_NE(json.find("\"invocations\":" +
                        std::to_string(metrics.invocations)),
              std::string::npos);
    EXPECT_NE(json.find("\"intervals\":" +
                        std::to_string(workload.trace.numIntervals())),
              std::string::npos);
    // Cold starts happened, so the latency pillar recorded them on at
    // least one tier.
    ASSERT_GT(metrics.cold_starts, 0u);
    EXPECT_TRUE(
        json.find("\"cold_start_ms/high-end\":{\"count\":0,") ==
            std::string::npos ||
        json.find("\"cold_start_ms/low-end\":{\"count\":0,") ==
            std::string::npos);
}

} // namespace
