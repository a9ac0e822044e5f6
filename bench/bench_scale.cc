/**
 * @file
 * Out-of-core ingestion benchmark: the Azure-scale streaming pipeline
 * (chunked CSV reader -> external-memory arrival generator ->
 * TraceSource windows) against the materializing path on the same
 * workload.
 *
 * Three quantities matter at 100k+ functions:
 *
 *  * ingest rate -- rows/sec through the chunked CSV parser and the
 *    synthetic row stream (spill-sorting included);
 *  * end-to-end simulation rate -- events/sec of a run fed by the
 *    streamed source vs one fed by a materialized trace;
 *  * peak RSS -- the streamed phase must stay bounded by its chunk
 *    and read-buffer sizes while the materializing phase grows
 *    linearly with the horizon (VmHWM is reset between phases via
 *    /proc/self/clear_refs, so each phase owns its own peak).
 *
 * The bench always self-gates on correctness: the streamed run's
 * metrics must be byte-identical to the materialized run's, and a
 * hinted streamed re-run must perform zero allocations (the merge
 * loop's zero-steady-state-allocation contract, measured end to end).
 * In --smoke mode the chunk size is forced tiny so the external
 * spill/merge path is exercised and must still agree.
 *
 * Flags:
 *   --functions N / --intervals N   workload size (default 100000 x
 *                                   1440: one synthetic Azure day)
 *   --repeats R                     timed runs per engine (default 3)
 *   --json PATH                     output (default BENCH_scale.json)
 *   --smoke                         small workload + forced spill;
 *                                   correctness gates only
 *   --baseline PATH                 gate against the committed
 *                                   BENCH_scale.json: [metrics digest]
 *                                   -- the fixed-geometry streamed
 *                                   IceBreaker digest must match
 *                                   exactly (machine-independent);
 *                                   [stream
 *                                   rate ratio] -- streamed events/sec
 *                                   over materialized events/sec,
 *                                   same process and machine so
 *                                   runner speed cancels, must stay
 *                                   within 10% of the committed
 *                                   value (best of up to 5 rounds).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_probe.hh"
#include "common/cli.hh"
#include "core/icebreaker.hh"
#include "harness/baseline_gate.hh"
#include "harness/observe.hh"
#include "policies/openwhisk_policy.hh"
#include "sim/cluster_config.hh"
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
using bench::digestHex;
using harness::digestMetrics;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    std::size_t num_functions = 100'000;
    std::size_t num_intervals = 1440; //!< one day of 1-minute slots
    std::size_t repeats = 3;
    std::string json_path = "BENCH_scale.json";
    std::string baseline_path;
    bool smoke = false;
};

// Fixed geometry for the machine-independent digest row: its digest
// must stay comparable across every invocation that ever wrote a
// baseline file, independent of --smoke and --functions.
constexpr std::size_t kFixedFunctions = 1024;
constexpr std::size_t kFixedIntervals = 120;

// CSV ingest is timed on a capped subset: the CSV text itself is
// generated in memory, and 100k rows of 1440 columns would spend the
// bench's whole budget on serialization rather than parsing.
constexpr std::size_t kMaxCsvRows = 4096;

// --------------------------------------------------------------- peak RSS

/** VmHWM (peak resident set) of this process in KiB, or 0. */
std::size_t
peakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return static_cast<std::size_t>(
                std::strtoull(line.c_str() + 6, nullptr, 10));
    }
    return 0;
}

/**
 * Reset the kernel's peak-RSS watermark so the next peakRssKb() read
 * covers only the work done since. Returns false where unsupported
 * (non-Linux); peaks then accumulate monotonically across phases.
 */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr)
        return false;
    const bool ok = std::fputs("5", f) >= 0;
    std::fclose(f);
    return ok;
}

// ------------------------------------------------------------- workload

trace::SyntheticConfig
scaleWorkloadConfig(const BenchConfig &cfg)
{
    return trace::azureScaleConfig(cfg.num_functions, cfg.num_intervals);
}

/**
 * Cluster sized to the function count: the paper's default
 * composition, scaled from its 400-function figure workloads so
 * per-function pressure stays comparable at any --functions.
 */
sim::ClusterConfig
scaleCluster(std::size_t num_functions)
{
    sim::ClusterConfig cluster = sim::defaultHeterogeneousCluster();
    const std::size_t scale = std::max<std::size_t>(
        1, (num_functions + 399) / 400);
    for (int t = 0; t < kNumTiers; ++t)
        cluster.tiers[static_cast<std::size_t>(t)].server_count *= scale;
    return cluster;
}

// --------------------------------------------------------------- timing

double
elapsedMs(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/**
 * Best-of-N wall time of @p run_fn in milliseconds: contention on a
 * shared machine only adds time, so the minimum is the observation
 * closest to the true cost and ratios of minima are stable.
 */
template <typename RunFn>
double
bestOfMs(RunFn &&run_fn, std::size_t repeats)
{
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
        const auto start = Clock::now();
        run_fn();
        best = std::min(best, elapsedMs(start));
    }
    return best;
}

// ------------------------------------------------------------ phase rows

struct IngestRow
{
    double wall_ms = 0.0;
    double rows_per_sec = 0.0;
};

struct CsvRow
{
    std::size_t rows = 0;
    std::size_t minute_cells = 0;
    double wall_ms = 0.0;
    double rows_per_sec = 0.0;
    double cells_per_sec = 0.0;
};

struct RunRow
{
    double events_per_sec = 0.0;
    std::size_t peak_rss_kb = 0;
};

// ---------------------------------------------------------------- phases

/**
 * CSV ingest rate: serialize a capped subset of the workload to the
 * Azure CSV schema in memory, then time the chunked reader draining
 * it row by row.
 */
CsvRow
runCsvPhase(const BenchConfig &cfg)
{
    trace::SyntheticConfig sub = scaleWorkloadConfig(cfg);
    sub.num_functions = std::min(cfg.num_functions, kMaxCsvRows);
    const trace::Trace tr =
        trace::SyntheticTraceGenerator(sub).generate();
    std::ostringstream csv;
    trace::writeAzureCsv(csv, tr);
    const std::string text = csv.str();

    CsvRow row;
    row.rows = tr.numFunctions();
    row.minute_cells = tr.numFunctions() * tr.numIntervals();

    std::istringstream in(text);
    const auto start = Clock::now();
    trace::AzureCsvRowStream stream(in);
    trace::FunctionRow fn_row;
    std::size_t rows = 0;
    while (stream.next(fn_row))
        ++rows;
    row.wall_ms = elapsedMs(start);

    if (rows != row.rows) {
        std::fprintf(stderr,
                     "FAIL: CSV stream produced %zu rows, wrote %zu\n",
                     rows, row.rows);
        std::exit(1);
    }
    row.rows_per_sec =
        static_cast<double>(row.rows) / (row.wall_ms / 1000.0);
    row.cells_per_sec =
        static_cast<double>(row.minute_cells) / (row.wall_ms / 1000.0);
    return row;
}

sim::SimCapacityHints
hintsFrom(const sim::SimulationMetrics &m)
{
    sim::SimCapacityHints hints;
    hints.containers = m.event_loop.peak_live_containers;
    hints.events = m.event_loop.peak_pending_events;
    hints.events_per_bucket = m.event_loop.peak_bucket_events;
    hints.evict_entries = m.event_loop.peak_evict_entries;
    hints.wait_queue = m.event_loop.peak_wait_queue;
    return hints;
}

/** Whole baseline file as a string; exits with a message if absent. */
std::string
readBaselineFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_scale: cannot read baseline %s\n",
                     path.c_str());
        std::exit(1);
    }
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

// ----------------------------------------------------------------- json

void
writeJson(const BenchConfig &cfg, std::uint64_t arrivals,
          std::uint64_t invocations, std::uint64_t events,
          const CsvRow &csv, const IngestRow &stream_ingest,
          std::size_t spill_runs, std::uint64_t spilled_bytes,
          const IngestRow &materialize, const RunRow &streamed,
          const RunRow &materialized, bool agree,
          long long hinted_allocs, const std::string &fixed_digest)
{
    const double rss_ratio = streamed.peak_rss_kb > 0
        ? static_cast<double>(materialized.peak_rss_kb) /
            static_cast<double>(streamed.peak_rss_kb)
        : 0.0;
    std::ofstream out(cfg.json_path);
    out << "{\n";
    out << "  \"bench\": \"scale\",\n";
    out << "  \"workload\": {\"functions\": " << cfg.num_functions
        << ", \"intervals\": " << cfg.num_intervals
        << ", \"arrivals\": " << arrivals
        << ", \"invocations\": " << invocations
        << ", \"events\": " << events << "},\n";
    out << "  \"repeats\": " << cfg.repeats << ",\n";
    out << "  \"csv_ingest\": {\"rows\": " << csv.rows
        << ", \"minute_cells\": " << csv.minute_cells
        << ", \"wall_ms\": " << csv.wall_ms
        << ", \"rows_per_sec\": " << csv.rows_per_sec
        << ", \"cells_per_sec\": " << csv.cells_per_sec << "},\n";
    out << "  \"stream_ingest\": {\"wall_ms\": " << stream_ingest.wall_ms
        << ", \"rows_per_sec\": " << stream_ingest.rows_per_sec
        << ", \"spill_runs\": " << spill_runs
        << ", \"spilled_mb\": "
        << static_cast<double>(spilled_bytes) / (1024.0 * 1024.0)
        << "},\n";
    out << "  \"materialize\": {\"wall_ms\": " << materialize.wall_ms
        << ", \"rows_per_sec\": " << materialize.rows_per_sec << "},\n";
    out << "  \"streamed\": {\"events_per_sec\": "
        << streamed.events_per_sec
        << ", \"peak_rss_mb\": "
        << static_cast<double>(streamed.peak_rss_kb) / 1024.0 << "},\n";
    out << "  \"materialized\": {\"events_per_sec\": "
        << materialized.events_per_sec
        << ", \"peak_rss_mb\": "
        << static_cast<double>(materialized.peak_rss_kb) / 1024.0
        << "},\n";
    out << "  \"stream_rate_ratio\": "
        << streamed.events_per_sec / materialized.events_per_sec << ",\n";
    out << "  \"rss_ratio\": " << rss_ratio << ",\n";
    out << "  \"agreement\": " << (agree ? "true" : "false") << ",\n";
    out << "  \"allocations\": {\"hinted_run\": " << hinted_allocs
        << "},\n";
    out << "  \"fixed\": {\"functions\": " << kFixedFunctions
        << ", \"intervals\": " << kFixedIntervals
        << ", \"scheme\": \"icebreaker\""
        << ", \"metrics_digest\": \"" << fixed_digest << "\"}\n";
    out << "}\n";
}

[[noreturn]] void
usage(int status)
{
    (status == 0 ? std::cout : std::cerr)
        << "usage: bench_scale [--functions N] [--intervals N]\n"
           "                   [--repeats R]\n"
           "                   [--json PATH] [--smoke]\n"
           "                   [--baseline PATH]\n";
    std::exit(status);
}

BenchConfig
parseArgs(int argc, char **argv)
{
    BenchConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "bench_scale: missing value for " << arg
                          << "\n";
                usage(1);
            }
            return argv[++i];
        };
        auto count = [&]() -> std::size_t {
            const std::optional<std::uint64_t> value =
                parseUintFlag("bench_scale", arg, next().c_str(), 1);
            if (!value)
                usage(1);
            return static_cast<std::size_t>(*value);
        };
        if (arg == "--functions") {
            cfg.num_functions = count();
        } else if (arg == "--intervals") {
            cfg.num_intervals = count();
        } else if (arg == "--repeats") {
            cfg.repeats = count();
        } else if (arg == "--json") {
            cfg.json_path = next();
        } else if (arg == "--baseline") {
            cfg.baseline_path = next();
        } else if (arg == "--smoke") {
            cfg.smoke = true;
        } else {
            if (arg != "--help")
                std::cerr << "bench_scale: unknown option " << arg
                          << "\n";
            usage(arg == "--help" ? 0 : 1);
        }
    }
    if (cfg.smoke) {
        cfg.num_functions = 768;
        cfg.num_intervals = 96;
        cfg.repeats = 3;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchConfig cfg = parseArgs(argc, argv);
    const trace::SyntheticConfig workload_config =
        scaleWorkloadConfig(cfg);
    const sim::ClusterConfig cluster = scaleCluster(cfg.num_functions);
    const workload::BenchmarkSuite suite =
        workload::BenchmarkSuite::sebs();
    const workload::ProfileMatcher matcher(suite);
    const bool rss_resets = resetPeakRss();
    if (!rss_resets)
        std::printf("note: peak-RSS reset unsupported; phase peaks "
                    "accumulate\n");

    // ------------------------------------------------- CSV ingest rate
    const CsvRow csv = runCsvPhase(cfg);
    std::printf("csv ingest: %zu rows (%zu cells) in %.1f ms -> "
                "%.0f rows/sec, %.2fM cells/sec\n",
                csv.rows, csv.minute_cells, csv.wall_ms,
                csv.rows_per_sec, csv.cells_per_sec / 1e6);

    // ------------------------------------------------- streamed phase
    // Runs FIRST so its peak RSS cannot inherit pages the
    // materializing phase touched.
    (void)resetPeakRss();
    sim::StreamingSourceOptions stream_options;
    if (cfg.smoke) {
        // Force the external spill/merge path even on a tiny horizon:
        // the smoke gate must exercise the same code CI ships.
        stream_options.chunk_records = 512;
        stream_options.read_records = 128;
    }

    IngestRow stream_ingest;
    RunRow streamed;
    std::uint64_t arrivals = 0;
    std::uint64_t invocations = 0;
    std::uint64_t events = 0;
    std::uint64_t digest_streamed = 0;
    std::size_t spill_runs = 0;
    std::uint64_t spilled_bytes = 0;
    long long hinted_allocs = 0;
    double streamed_best_ms = 0.0;
    sim::SimCapacityHints hints;
    {
        const auto ingest_start = Clock::now();
        trace::SyntheticRowStream rows(workload_config);
        sim::StreamingWorkloadSource source(rows, stream_options);
        stream_ingest.wall_ms = elapsedMs(ingest_start);
        stream_ingest.rows_per_sec =
            static_cast<double>(cfg.num_functions) /
            (stream_ingest.wall_ms / 1000.0);
        arrivals = source.totalArrivals();
        spill_runs = source.spillRuns();
        spilled_bytes = source.spilledBytes();
        std::printf("stream ingest: %zu fns, %llu arrivals in %.1f ms "
                    "-> %.0f rows/sec (%zu spill runs, %.1f MB "
                    "spilled)\n",
                    cfg.num_functions,
                    static_cast<unsigned long long>(arrivals),
                    stream_ingest.wall_ms, stream_ingest.rows_per_sec,
                    spill_runs,
                    static_cast<double>(spilled_bytes) /
                        (1024.0 * 1024.0));
        if (cfg.smoke && spill_runs == 0) {
            std::fprintf(stderr,
                         "FAIL: smoke run never spilled; the external "
                         "merge path went untested\n");
            return 1;
        }

        const std::vector<workload::FunctionProfile> profiles =
            sim::matchStreamedProfiles(source, matcher);

        // Calibration run: digest, event count, capacity hints.
        policies::OpenWhiskPolicy policy;
        const sim::SimulationMetrics calib = sim::runSimulation(
            source, profiles, cluster, policy, {});
        digest_streamed = digestMetrics(calib);
        invocations = calib.invocations;
        events = calib.event_loop.totalPopped();
        hints = hintsFrom(calib);

        // Zero-allocation gate: a hinted re-run's run() must not
        // allocate -- beginRun() rewinds the spill cursors and the
        // merge loop reuses every buffer sized during ingest.
        {
            sim::SimulatorOptions options;
            options.hints = hints;
            sim::Simulator hinted(source, profiles, cluster, policy,
                                  options);
            const long long before =
                bench::allocationCount();
            (void)hinted.run();
            hinted_allocs =
                bench::allocationCount() - before;
        }
        std::printf("allocations in hinted streamed run(): %lld\n",
                    hinted_allocs);

        // Timed streamed runs (hinted, best-of-N).
        streamed_best_ms = bestOfMs(
            [&] {
                sim::SimulatorOptions options;
                options.hints = hints;
                (void)sim::runSimulation(source, profiles, cluster,
                                         policy, options);
            },
            cfg.repeats);
        streamed.events_per_sec = static_cast<double>(events) /
            (streamed_best_ms / 1000.0);

        // The RSS sample covers exactly ingest + profiles + runs.
        streamed.peak_rss_kb = peakRssKb();

        std::printf("streamed run: %8.0f events/sec, peak RSS %.1f "
                    "MB\n",
                    streamed.events_per_sec,
                    static_cast<double>(streamed.peak_rss_kb) / 1024.0);
    }

    // --------------------------------------------- materialized phase
    (void)resetPeakRss();
    IngestRow materialize;
    RunRow materialized;
    std::uint64_t digest_materialized = 0;
    double materialized_best_ms = 0.0;
    {
        const auto build_start = Clock::now();
        const trace::Trace tr =
            trace::SyntheticTraceGenerator(workload_config).generate();
        const std::vector<workload::FunctionProfile> profiles =
            matcher.profilesFor(tr);
        materialize.wall_ms = elapsedMs(build_start);
        materialize.rows_per_sec =
            static_cast<double>(cfg.num_functions) /
            (materialize.wall_ms / 1000.0);

        policies::OpenWhiskPolicy policy;
        {
            const sim::SimulationMetrics calib = sim::runSimulation(
                tr, profiles, cluster, policy, {});
            digest_materialized = digestMetrics(calib);
        }
        materialized_best_ms = bestOfMs(
            [&] {
                sim::SimulatorOptions options;
                options.hints = hints;
                (void)sim::runSimulation(tr, profiles, cluster, policy,
                                         options);
            },
            cfg.repeats);
        materialized.events_per_sec = static_cast<double>(events) /
            (materialized_best_ms / 1000.0);

        materialized.peak_rss_kb = peakRssKb();
        std::printf("materialized: built in %.1f ms; %8.0f events/sec, "
                    "peak RSS %.1f MB\n",
                    materialize.wall_ms, materialized.events_per_sec,
                    static_cast<double>(materialized.peak_rss_kb) /
                        1024.0);
    }

    const bool agree = digest_streamed == digest_materialized;
    std::printf("agreement (streamed == materialized): %s\n",
                agree ? "OK" : "MISMATCH");
    if (streamed.peak_rss_kb > 0 && rss_resets) {
        std::printf("peak RSS ratio (materialized / streamed): %.2fx\n",
                    static_cast<double>(materialized.peak_rss_kb) /
                        static_cast<double>(streamed.peak_rss_kb));
    }

    // ------------------------------------------- fixed digest row
    // Machine-independent: fixed geometry, default chunking, the paper
    // scheme fed by the streamed source.
    std::string fixed_digest;
    {
        trace::SyntheticRowStream rows(
            trace::azureScaleConfig(kFixedFunctions, kFixedIntervals));
        sim::StreamingWorkloadSource source(rows);
        const std::vector<workload::FunctionProfile> profiles =
            sim::matchStreamedProfiles(source, matcher);
        core::IceBreakerPolicy policy;
        fixed_digest = digestHex(digestMetrics(sim::runSimulation(
            source, profiles, scaleCluster(kFixedFunctions), policy)));
    }
    std::printf("fixed row (%zux%zu, icebreaker, streamed): digest %s\n",
                kFixedFunctions, kFixedIntervals, fixed_digest.c_str());

    writeJson(cfg, arrivals, invocations, events, csv, stream_ingest,
              spill_runs, spilled_bytes, materialize, streamed,
              materialized, agree, hinted_allocs, fixed_digest);
    std::printf("wrote %s\n", cfg.json_path.c_str());

    // ------------------------------------------------------------ gates
    if (!agree) {
        std::fprintf(stderr,
                     "FAIL: streamed and materialized metrics differ: "
                     "%s != %s\n",
                     digestHex(digest_streamed).c_str(),
                     digestHex(digest_materialized).c_str());
        return 1;
    }
    if (hinted_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: hinted streamed run() performed %lld "
                     "allocations\n",
                     hinted_allocs);
        return 1;
    }
    if (!cfg.baseline_path.empty()) {
        const std::string baseline = readBaselineFile(cfg.baseline_path);

        // The fixed digest is machine-independent: exact equality.
        const std::optional<std::string> committed =
            harness::findJsonString(baseline, "metrics_digest");
        if (!committed) {
            std::fprintf(stderr,
                         "bench_scale: no metrics_digest in %s\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        const harness::GateResult digest_gate = harness::gateDigest(
            "metrics digest", fixed_digest, *committed);
        std::printf("%s\n", digest_gate.message.c_str());
        if (!digest_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         digest_gate.message.c_str());
            return 1;
        }

        // Streamed vs materialized events/sec in the same process:
        // machine speed cancels, leaving what the streaming window
        // path costs relative to serving slices of a prebuilt array.
        // Contention only ever lowers the measured ratio, so on a
        // miss re-measure and keep the best round. The ratio is NOT
        // geometry-independent (a smoke-sized workload fits in cache
        // on both paths, shrinking the streamed advantage), so it
        // only gates runs at the baseline's own scale.
        if (cfg.smoke) {
            std::printf("[stream rate ratio] smoke geometry is not "
                        "comparable to the committed full-scale "
                        "ratio; gate skipped\n");
            return 0;
        }
        const std::optional<double> base =
            harness::findJsonNumber(baseline, "stream_rate_ratio");
        if (!base) {
            std::fprintf(stderr,
                         "bench_scale: no stream_rate_ratio in %s\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        double best =
            streamed.events_per_sec / materialized.events_per_sec;
        std::fprintf(stderr,
                     "gate: stream rate ratio %.4f (baseline %.4f)\n",
                     best, *base);
        const double floor = *base * 0.90;
        if (best < floor) {
            // Re-measure rounds need both workloads alive again;
            // rebuild them once and alternate timed runs.
            trace::SyntheticRowStream rows(workload_config);
            sim::StreamingWorkloadSource source(rows, stream_options);
            const std::vector<workload::FunctionProfile> sprofiles =
                sim::matchStreamedProfiles(source, matcher);
            const trace::Trace tr =
                trace::SyntheticTraceGenerator(workload_config)
                    .generate();
            const std::vector<workload::FunctionProfile> mprofiles =
                matcher.profilesFor(tr);
            policies::OpenWhiskPolicy policy;
            sim::SimulatorOptions options;
            options.hints = hints;
            for (int round = 2; best < floor && round <= 5; ++round) {
                const double s_ms = bestOfMs(
                    [&] {
                        (void)sim::runSimulation(source, sprofiles,
                                                 cluster, policy,
                                                 options);
                    },
                    cfg.repeats);
                const double m_ms = bestOfMs(
                    [&] {
                        (void)sim::runSimulation(tr, mprofiles, cluster,
                                                 policy, options);
                    },
                    cfg.repeats);
                const double again = m_ms / s_ms;
                std::printf("gate re-measure round %d: %.4f\n", round,
                            again);
                best = std::max(best, again);
            }
        }
        const harness::GateResult ratio_gate = harness::gateRatio(
            "stream rate ratio", best, *base, 0.10);
        std::printf("%s\n", ratio_gate.message.c_str());
        if (!ratio_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         ratio_gate.message.c_str());
            return 1;
        }
    }
    return 0;
}
