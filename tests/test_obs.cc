/**
 * @file
 * Tests for the observability layer (src/obs/ + harness wiring): the
 * trace ring buffer, Chrome trace_event export, probe CSV, manifest
 * lines, digest stability, latency histograms (bucket exactness,
 * tidy CSV), the no-perturbation contract (an attached
 * recorder never changes simulation results), and byte-identical
 * observation files across runner thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>

#include "harness/observe.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "obs/histogram.hh"
#include "obs/manifest.hh"
#include "obs/probes.hh"
#include "obs/recorder.hh"
#include "obs/trace_sink.hh"

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

TEST(TraceSinkTest, RecordsRetainOrderAndCounts)
{
    obs::TraceSink sink(16);
    EXPECT_EQ(sink.capacity(), 16u);
    EXPECT_EQ(sink.size(), 0u);
    sink.record(obs::TraceKind::Arrival, 100, 3, Tier::HighEnd,
                obs::ColdCause::None, 0);
    sink.record(obs::TraceKind::ColdStart, 150, 3, Tier::LowEnd,
                obs::ColdCause::AllBusy, 900);
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.recorded(), 2u);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_EQ(sink.at(0).time, 100u);
    EXPECT_EQ(sink.at(0).kind,
              static_cast<std::uint8_t>(obs::TraceKind::Arrival));
    EXPECT_EQ(sink.at(1).arg, 900u);
    EXPECT_EQ(sink.at(1).cause,
              static_cast<std::uint8_t>(obs::ColdCause::AllBusy));
    EXPECT_EQ(sink.count(obs::TraceKind::Arrival), 1u);
    EXPECT_EQ(sink.count(obs::TraceKind::ColdStart), 1u);
    EXPECT_EQ(sink.count(obs::TraceKind::Eviction), 0u);
}

TEST(TraceSinkTest, RingKeepsNewestAndCountsDropped)
{
    obs::TraceSink sink(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        sink.record(obs::TraceKind::Arrival, i, 0, Tier::HighEnd,
                    obs::ColdCause::None, i);
    EXPECT_EQ(sink.recorded(), 10u);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    // Retained records are the newest four, oldest first.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(sink.at(i).arg, 6u + i);
    // Per-kind counts survive the wrap (they count ever-recorded).
    EXPECT_EQ(sink.count(obs::TraceKind::Arrival), 10u);
}

TEST(TraceSinkTest, CapacityRoundsUpToPowerOfTwo)
{
    // Minimum ring size is 2 (a 1-slot mask degenerates).
    EXPECT_EQ(obs::TraceSink(1).capacity(), 2u);
    EXPECT_EQ(obs::TraceSink(5).capacity(), 8u);
    EXPECT_EQ(obs::TraceSink(64).capacity(), 64u);
    EXPECT_EQ(obs::TraceSink(100).capacity(), 128u);
}

TEST(TraceSinkTest, MacroIsInertWithoutSink)
{
    obs::TraceSink *sink = nullptr;
    // Argument expressions must not be evaluated into a crash; with a
    // null sink the macro is a single branch.
    ICEB_TRACE(sink, obs::TraceKind::Arrival, 1, 0, Tier::HighEnd,
               obs::ColdCause::None, 0);
    obs::TraceSink real(4);
    sink = &real;
    ICEB_TRACE(sink, obs::TraceKind::Arrival, 1, 0, Tier::HighEnd,
               obs::ColdCause::None, 0);
#if ICEB_OBS_TRACING
    EXPECT_EQ(real.recorded(), 1u);
#else
    EXPECT_EQ(real.recorded(), 0u);
#endif
}

TEST(ChromeTraceTest, ExportStructure)
{
    obs::TraceSink sink(16);
    sink.record(obs::TraceKind::IntervalStart, 0, kInvalidFunction,
                Tier::HighEnd, obs::ColdCause::None, 0);
    sink.record(obs::TraceKind::Arrival, 5, 2, Tier::HighEnd,
                obs::ColdCause::None, 0);
    sink.record(obs::TraceKind::ColdStart, 5, 2, Tier::LowEnd,
                obs::ColdCause::NoContainer, 750);
    sink.record(obs::TraceKind::WarmStart, 9, 2, Tier::HighEnd,
                obs::ColdCause::None, 120);

    obs::ProbeTable probes;
    obs::IntervalSample s;
    s.interval = 0;
    s.time = 0;
    s.idle_warm = {3, 1};
    s.used_mb = {1024, 512};
    s.total_mb = {4096, 8192};
    s.wait_queue = 2;
    probes.addIntervalSample(s);

    std::ostringstream out;
    obs::writeChromeTrace(out, {{"icebreaker", &sink, &probes}});
    const std::string doc = out.str();

    // Document shell + metadata.
    EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",", 0), 0u);
    EXPECT_NE(doc.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(doc.find("\"process_name\""), std::string::npos);
    EXPECT_NE(doc.find("\"icebreaker\""), std::string::npos);
    // Cold/warm starts export as duration events with cause args.
    EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(doc.find("\"cold fn2\""), std::string::npos);
    EXPECT_NE(doc.find("\"no_container\""), std::string::npos);
    EXPECT_NE(doc.find("\"warm fn2\""), std::string::npos);
    // Instants and counter tracks from the probe sample.
    EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(doc.find("\"warm pool\""), std::string::npos);
    // Sim-ms timestamps scale to microseconds: cold start at 5 ms.
    EXPECT_NE(doc.find("\"ts\":5000,"), std::string::npos);
    EXPECT_NE(doc.find("\"dur\":750000"), std::string::npos);
    // The document is balanced (cheap structural sanity check).
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '{'),
              std::count(doc.begin(), doc.end(), '}'));
    EXPECT_EQ(std::count(doc.begin(), doc.end(), '['),
              std::count(doc.begin(), doc.end(), ']'));
    EXPECT_EQ(doc.back(), '\n');
}

TEST(ChromeTraceTest, EmptyRunListIsValidDocument)
{
    std::ostringstream out;
    obs::writeChromeTrace(out, {});
    EXPECT_EQ(out.str(),
              "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\n]}\n");
}

TEST(DigestTest, KnownFnv1aValues)
{
    // FNV-1a offset basis: digest of nothing.
    EXPECT_EQ(obs::Digest().value(), 0xcbf29ce484222325ull);
    // Digests are order- and boundary-sensitive.
    EXPECT_NE(obs::Digest().addString("ab").addString("c").value(),
              obs::Digest().addString("a").addString("bc").value());
    EXPECT_NE(obs::Digest().addU64(1).addU64(2).value(),
              obs::Digest().addU64(2).addU64(1).value());
    // -0.0 normalizes to +0.0 so equal-comparing metrics digest equal.
    EXPECT_EQ(obs::Digest().addDouble(-0.0).value(),
              obs::Digest().addDouble(0.0).value());
    EXPECT_NE(obs::Digest().addDouble(1.0).value(),
              obs::Digest().addDouble(-1.0).value());
    // Fixed-width lowercase hex.
    EXPECT_EQ(obs::toHex(0), "0000000000000000");
    EXPECT_EQ(obs::toHex(0xdeadbeefull), "00000000deadbeef");
    EXPECT_EQ(obs::Digest().hex().size(), 16u);
}

TEST(ManifestTest, WritesOneJsonLine)
{
    obs::RunManifest m;
    m.run_index = 3;
    m.scheme = "icebreaker";
    m.label = "ratio \"2.4\"";
    m.replicate = 1;
    m.base_seed = 0x51AB1CEBull;
    m.derived_seed = 0xfeedULL;
    m.cluster = "10H+18L (default)";
    m.config_digest = 0xabcdULL;
    m.workload_functions = 24;
    m.workload_intervals = 90;
    m.workload_invocations = 1234;
    m.metrics = {{"invocations", 1234.0}, {"cold_starts", 56.0}};
    m.metrics_digest = 0x1234ULL;
    m.trace_recorded = 1000;
    m.trace_dropped = 0;
    m.probe_samples = 90;

    std::ostringstream out;
    obs::writeManifestLine(out, m);
    const std::string line = out.str();

    // Exactly one line.
    EXPECT_EQ(line.back(), '\n');
    EXPECT_EQ(std::count(line.begin(), line.end(), '\n'), 1);
    // Seeds/digests are hex strings, not JSON numbers.
    EXPECT_NE(line.find("\"base_seed\":\"0000000051ab1ceb\""),
              std::string::npos);
    EXPECT_NE(line.find("\"derived_seed\":\"000000000000feed\""),
              std::string::npos);
    // The label's quotes are escaped.
    EXPECT_NE(line.find("ratio \\\"2.4\\\""), std::string::npos);
    EXPECT_NE(line.find("\"scheme\":\"icebreaker\""),
              std::string::npos);
    EXPECT_NE(line.find("\"cold_starts\":56"), std::string::npos);
    EXPECT_EQ(std::count(line.begin(), line.end(), '{'),
              std::count(line.begin(), line.end(), '}'));
}

TEST(ProbeCsvTest, TidyRowsPerSeries)
{
    obs::ProbeTable probes;
    obs::IntervalSample s;
    s.interval = 2;
    s.time = 1200;
    s.idle_warm = {5, 7};
    s.in_setup = {1, 0};
    s.used_mb = {2048, 1024};
    s.total_mb = {4096, 8192};
    s.wait_queue = 3;
    s.keep_alive_cost = {0.25, 0.125};
    probes.addIntervalSample(s);
    obs::ForecastSample f;
    f.interval = 1;
    f.fn = 9;
    f.predicted = 4.5;
    f.actual = 4.0;
    f.window_mae = 0.5;
    probes.addForecastSample(f);

    std::ostringstream out;
    obs::writeProbeCsv(out, {{"icebreaker", &probes}});
    const std::string csv = out.str();

    EXPECT_EQ(csv.rfind("run,interval,time_ms,series,tier,fn,value\n",
                        0),
              0u);
    // Per-tier cluster series rows: tier set, fn blank.
    EXPECT_NE(csv.find("icebreaker,2,1200,idle_warm,high-end,,5\n"),
              std::string::npos);
    EXPECT_NE(csv.find("icebreaker,2,1200,idle_warm,low-end,,7\n"),
              std::string::npos);
    EXPECT_NE(csv.find("icebreaker,2,1200,used_mb,low-end,,1024\n"),
              std::string::npos);
    EXPECT_NE(
        csv.find("icebreaker,2,1200,keep_alive_cost,high-end,,0.25\n"),
        std::string::npos);
    // Scalar series: tier blank.
    EXPECT_NE(csv.find("icebreaker,2,1200,wait_queue,,,3\n"),
              std::string::npos);
    // Forecast series: fn set, tier blank, interval is the forecast's.
    EXPECT_NE(csv.find("icebreaker,1,,forecast_predicted,,9,4.5\n"),
              std::string::npos);
    EXPECT_NE(csv.find("icebreaker,1,,forecast_window_mae,,9,0.5\n"),
              std::string::npos);
}

TEST(RecorderTest, PillarsNullWhenDisabled)
{
    obs::ObsConfig off;
    obs::RunRecorder none(off);
    EXPECT_EQ(none.traceSink(), nullptr);
    EXPECT_EQ(none.probeTable(), nullptr);
    EXPECT_FALSE(off.any());

    obs::ObsConfig both;
    both.trace = true;
    both.probes = true;
    both.trace_capacity = 64;
    obs::RunRecorder on(both);
    ASSERT_NE(on.traceSink(), nullptr);
    ASSERT_NE(on.probeTable(), nullptr);
    EXPECT_EQ(on.traceSink()->capacity(), 64u);
}

/**
 * The no-perturbation contract: attaching a recorder changes nothing
 * about the simulation's results, and the trace agrees with the
 * metrics about what happened.
 */
TEST(ObsSimulationTest, RecorderDoesNotPerturbMetricsAndAgrees)
{
    const harness::Workload workload = smallWorkload();
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    const sim::SimulatorOptions base =
        sim::SimulatorOptions::forRun(harness::kDefaultBaseSeed, 0);

    const auto policy = harness::makePolicy(harness::Scheme::IceBreaker);
    const sim::SimulationMetrics plain = sim::runSimulation(
        workload.trace, workload.profiles, cluster, *policy, base);

    obs::ObsConfig config;
    config.trace = true;
    config.probes = true;
    obs::RunRecorder recorder(config);
    sim::SimulatorOptions observed = base;
    observed.recorder = &recorder;
    const auto policy2 =
        harness::makePolicy(harness::Scheme::IceBreaker);
    const sim::SimulationMetrics traced = sim::runSimulation(
        workload.trace, workload.profiles, cluster, *policy2, observed);

    EXPECT_EQ(plain.invocations, traced.invocations);
    EXPECT_EQ(plain.cold_starts, traced.cold_starts);
    EXPECT_EQ(plain.warm_starts, traced.warm_starts);
    EXPECT_EQ(plain.sum_service_ms, traced.sum_service_ms);
    EXPECT_EQ(plain.service_times_ms, traced.service_times_ms);
    EXPECT_EQ(plain.totalKeepAliveCost(), traced.totalKeepAliveCost());
    EXPECT_EQ(obs::Digest().addU64(harness::digestMetrics(plain)).value(),
              obs::Digest()
                  .addU64(harness::digestMetrics(traced))
                  .value());

    const obs::TraceSink *sink = recorder.traceSinkIfEnabled();
    ASSERT_NE(sink, nullptr);
#if ICEB_OBS_TRACING
    EXPECT_GT(sink->recorded(), 0u);
    // The trace's per-kind counters agree with the metrics.
    EXPECT_EQ(sink->count(obs::TraceKind::Arrival),
              traced.invocations);
    EXPECT_EQ(sink->count(obs::TraceKind::ColdStart),
              traced.cold_starts);
    EXPECT_EQ(sink->count(obs::TraceKind::WarmStart),
              traced.warm_starts);
    EXPECT_EQ(sink->count(obs::TraceKind::IntervalStart),
              workload.trace.numIntervals());
#endif
    const obs::ProbeTable *probes = recorder.probeTableIfEnabled();
    ASSERT_NE(probes, nullptr);
    // One interval sample per decision boundary, regardless of the
    // tracing compile switch (probes are plain calls, not macros).
    EXPECT_EQ(probes->intervalSampleCount(),
              workload.trace.numIntervals());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Observation files are part of the runner's determinism contract:
 * `--threads N` writes byte-identical trace/probe/manifest files.
 * Named Runner* so the CI TSan job also exercises a traced
 * multi-threaded grid.
 */
TEST(RunnerObsTest, ObservationFilesIdenticalAcrossThreads)
{
    const harness::Workload workload = smallWorkload();
    const std::vector<harness::SweepPoint> points = {
        {"", sim::defaultHeterogeneousCluster()}};
    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        {"openwhisk", "icebreaker"}, workload, points,
        harness::kDefaultBaseSeed, 2);

    const std::string dir = testing::TempDir();
    const auto runWith = [&](std::size_t threads,
                             const std::string &tag) {
        harness::ObservationOptions options;
        options.trace_path = dir + "/trace_" + tag + ".json";
        options.probe_path = dir + "/probes_" + tag + ".csv";
        options.manifest_path = dir + "/manifest_" + tag + ".jsonl";
        // Tiny ring so the wrap/drop accounting is exercised too.
        options.trace_capacity = 1u << 10;
        harness::ExperimentRunner runner(threads);
        runner.setObservation(options);
        runner.run(grid);
        return options;
    };

    const harness::ObservationOptions serial = runWith(1, "t1");
    const harness::ObservationOptions threaded = runWith(4, "t4");

    const std::string trace = slurp(serial.trace_path);
    EXPECT_EQ(trace, slurp(threaded.trace_path));
    EXPECT_EQ(slurp(serial.probe_path), slurp(threaded.probe_path));
    const std::string manifest = slurp(serial.manifest_path);
    EXPECT_EQ(manifest, slurp(threaded.manifest_path));

    // One manifest line per grid run, in grid order.
    EXPECT_EQ(std::count(manifest.begin(), manifest.end(), '\n'),
              static_cast<std::ptrdiff_t>(grid.size()));
    EXPECT_LT(manifest.find("\"scheme\":\"openwhisk\""),
              manifest.find("\"scheme\":\"icebreaker\""));
    // The trace document names every run as a process.
    EXPECT_NE(trace.find("\"openwhisk\""), std::string::npos);
    EXPECT_NE(trace.find("\"icebreaker#1\""), std::string::npos);
}

// ------------------------------------------------------- histograms

TEST(HistogramTest, BucketBoundariesPartitionTheRange)
{
    using H = obs::LatencyHistogram;
    // Values below 2^kSubBits land in exact singleton buckets.
    for (std::uint64_t v = 0; v < (1ull << H::kSubBits); ++v) {
        EXPECT_EQ(H::bucketIndex(v), v);
        EXPECT_EQ(H::bucketLowerBound(v), v);
        EXPECT_EQ(H::bucketUpperBound(v), v);
    }
    // Both boundaries of every bucket map back to it, and the buckets
    // tile the whole uint64 range with no gaps or overlaps.
    for (std::size_t i = 0; i < H::kNumBuckets; ++i) {
        EXPECT_EQ(H::bucketIndex(H::bucketLowerBound(i)), i);
        EXPECT_EQ(H::bucketIndex(H::bucketUpperBound(i)), i);
        if (i > 0) {
            EXPECT_EQ(H::bucketUpperBound(i - 1) + 1,
                      H::bucketLowerBound(i));
        }
    }
    EXPECT_EQ(H::bucketUpperBound(H::kNumBuckets - 1),
              std::numeric_limits<std::uint64_t>::max());
    // Above the singleton range the relative width is 2^-kSubBits.
    const std::size_t i = H::bucketIndex(1000);
    EXPECT_LE(H::bucketUpperBound(i) - H::bucketLowerBound(i) + 1,
              H::bucketLowerBound(i) >> H::kSubBits);
}

TEST(HistogramTest, RecordCountSumMaxAndQuantiles)
{
    obs::LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    // Singleton buckets: small values are recovered exactly.
    for (std::uint64_t v = 0; v < 8; ++v)
        h.record(v);
    EXPECT_EQ(h.count(), 8u);
    EXPECT_EQ(h.sum(), 28u);
    EXPECT_EQ(h.max(), 7u);
    EXPECT_EQ(h.quantile(0.125), 0u); // rank 1
    EXPECT_EQ(h.quantile(0.5), 3u);   // rank 4 -> value 3
    EXPECT_EQ(h.quantile(1.0), 7u);
    // An outlier: quantile(1.0) clamps to the exact maximum, not the
    // (much wider) bucket upper bound.
    h.record(1'000'000);
    EXPECT_EQ(h.max(), 1'000'000u);
    EXPECT_EQ(h.quantile(1.0), 1'000'000u);
    EXPECT_EQ(h.quantile(0.5), 4u); // rank ceil(4.5) = 5 -> value 4
}

TEST(HistogramCsvTest, TidyRowsSkipEmptySeries)
{
    obs::HistogramSet set;
    set.cold_start_ms[0].record(4);
    set.cold_start_ms[0].record(4);
    set.cold_start_ms[0].record(100);
    set.wait_queue_ms[1].record(2);

    std::ostringstream out;
    obs::writeHistogramCsv(out, {{"r0", &set}, {"null", nullptr}});
    const std::string csv = out.str();

    EXPECT_EQ(csv.rfind("run,series,tier,bucket_lo,bucket_hi,count\n",
                        0),
              0u);
    // Occupied buckets only: header + 2 cold rows + 1 wait row.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
    EXPECT_NE(csv.find("r0,cold_start_ms,high-end,4,4,2\n"),
              std::string::npos);
    EXPECT_NE(csv.find("r0,wait_queue_ms,low-end,2,2,1\n"),
              std::string::npos);
    EXPECT_EQ(csv.find("setup_attach_ms"), std::string::npos);
    EXPECT_EQ(csv.find("null"), std::string::npos);
}

} // namespace
