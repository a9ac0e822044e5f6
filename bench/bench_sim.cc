/**
 * @file
 * Whole-simulation throughput benchmark: events/sec, ns/event and
 * allocations/invocation for the discrete-event sim core, against the
 * frozen pre-optimisation core in legacy_sim.hh (hash-map container
 * table, linear worst-fit scans, std::find pool removal, fat-event
 * binary heap, materialised arrival pushes).
 *
 * Both cores replay the same frozen synthetic trace under the
 * OpenWhisk baseline policy and must produce identical metrics (the
 * refactor is behaviour-preserving by construction); the bench gates
 * on that agreement before timing anything.
 *
 * The allocation probe runs the live core twice: a calibration run
 * whose EventLoopStats peaks become SimCapacityHints, then a hinted
 * run whose Simulator::run() must not allocate at all.
 *
 * Flags:
 *   --functions N / --intervals N   workload size (default 64 x 120)
 *   --repeats R                     timed runs per core (default 5)
 *   --json PATH                     write the JSON report to PATH
 *                                   (none without it; pass
 *                                   BENCH_sim.json to regenerate
 *                                   the committed baseline)
 *   --smoke                         tiny workload + correctness gates:
 *                                   exits non-zero if the cores
 *                                   disagree or the hinted run
 *                                   allocates. Absolute timings are
 *                                   NOT gated (CI noise).
 *   --baseline PATH                 also gate on the committed
 *                                   BENCH_sim.json at PATH. Each gate
 *                                   is named on its FAIL line:
 *                                   [speedup ratio] -- the measured
 *                                   live/legacy speedup must stay
 *                                   within 2% of its
 *                                   speedup_vs_legacy (best of up to
 *                                   5 measurement rounds; contention
 *                                   only ever lowers the ratio, so
 *                                   retrying sheds noise without
 *                                   masking regressions). Because the
 *                                   legacy core is frozen BEFORE the
 *                                   streaming observation boundary,
 *                                   this ratio is a machine-
 *                                   independent ceiling on what the
 *                                   boundary may cost.
 *                                   [telemetry overhead] -- the
 *                                   histograms-on/off events/s ratio
 *                                   the JSON records (best of up to 5
 *                                   rounds, measured before it is
 *                                   written) must stay within 2% of
 *                                   1.0; the bound is a property of
 *                                   the build, so it gates against
 *                                   1.0 rather than the baseline file.
 *                                   [metrics digest] -- the digest of
 *                                   an IceBreaker run on a FIXED
 *                                   workload geometry (independent of
 *                                   --smoke and --functions) must
 *                                   equal the committed one exactly;
 *                                   it is machine-independent. A
 *                                   baseline without one fails.
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
#include <string>
#include <vector>

#include "bench_probe.hh"
#include "common/cli.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "core/icebreaker.hh"
#include "harness/baseline_gate.hh"
#include "harness/observe.hh"
#include "legacy_sim.hh"
#include "obs/recorder.hh"
#include "policies/openwhisk_policy.hh"
#include "sim/simulator.hh"

namespace
{

using namespace iceb;
using bench::digestHex;
using harness::digestMetrics;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    std::size_t num_functions = 64;
    std::size_t num_intervals = 120; // 2 hours of 1-minute slots
    std::size_t repeats = 5;
    std::string json_path; //!< empty: no JSON report
    std::string baseline_path;
    bool smoke = false;
};

// ---------------------------------------------------------------------------
// Frozen workload: hand-rolled trace (independent of the
// synthetic-trace generator, so this bench's numbers cannot drift as
// the workload model evolves). The regime is warm steady state --
// where a production FaaS simulator spends nearly all of its time:
//
//  * Three quarters of the functions serve a burst of invocations
//    every interval, all warm reuses after the first. Each reuse
//    renews the keep-alive, so under OpenWhisk's 10-minute window a
//    deep backlog of stale ContainerExpiry events accumulates in the
//    pending-event set (hundreds of thousands). That backlog is what
//    separates the cores: the legacy core pushes and pops a fat
//    48-byte Event through an ~18-level, multi-megabyte binary heap
//    for EVERY arrival, while the live core streams arrivals from
//    the precomputed schedule without touching the queue at all, and
//    its completion/expiry traffic costs an O(1) calendar-queue
//    bucket append plus a sequential sorted-run drain.
//  * The remaining quarter are sparse: gaps longer than the
//    keep-alive, so every burst cold-starts a fresh fleet (O(servers)
//    worst-fit scans + a hash-map node allocation per container in
//    the legacy core) and the previous fleet expires.
//
// Memory is provisioned above peak demand: no eviction and no wait
// queueing, which are identical code on both sides and would only
// dilute the comparison (tests cover those paths; the agreement gate
// still replays them on every smoke run via the sparse expiries).
// ---------------------------------------------------------------------------

struct BenchWorkload
{
    trace::Trace tr{1, 60'000}; // placeholder; rebuilt in buildWorkload
    std::vector<workload::FunctionProfile> profiles;
    sim::ClusterConfig cluster;
};

BenchWorkload
buildWorkload(const BenchConfig &cfg)
{
    BenchWorkload w;
    w.tr = trace::Trace(cfg.num_intervals, 60'000);
    Rng rng(0x51D'BE4C'11ull);
    std::int64_t peak_demand_mb = 0;
    for (std::size_t fn = 0; fn < cfg.num_functions; ++fn) {
        Rng stream = rng.fork(fn);
        trace::FunctionSeries series;
        series.name = "b" + std::to_string(fn);
        series.memory_mb = 128 + 64 * stream.uniformInt(0, 2);
        series.avg_exec_ms = 600 * stream.uniformInt(1, 3);
        series.concurrency.assign(cfg.num_intervals, 0);
        std::uint32_t peak_conc = 0;
        if (fn % 4 != 3) {
            // Steady service: a warm-reuse burst every interval.
            for (std::size_t iv = 0; iv < cfg.num_intervals; ++iv) {
                series.concurrency[iv] = static_cast<std::uint32_t>(
                    stream.uniformInt(256, 512));
                peak_conc = std::max(peak_conc, series.concurrency[iv]);
            }
        } else {
            // Sparse service: gaps outlast the 10-minute keep-alive,
            // so each burst is a cold restart of the whole fleet and
            // the previous fleet expires container by container.
            std::size_t iv =
                static_cast<std::size_t>(stream.uniformInt(0, 11));
            while (iv < cfg.num_intervals) {
                series.concurrency[iv] = static_cast<std::uint32_t>(
                    stream.uniformInt(32, 96));
                peak_conc = std::max(peak_conc, series.concurrency[iv]);
                iv += static_cast<std::size_t>(stream.uniformInt(12, 18));
            }
        }
        w.tr.addFunction(series);
        peak_demand_mb +=
            static_cast<std::int64_t>(series.memory_mb) * peak_conc;

        workload::FunctionProfile profile;
        profile.name = series.name;
        profile.memory_mb = series.memory_mb;
        profile.cold_start_ms = {
            1000 + 250 * stream.uniformInt(0, 4),
            2000 + 500 * stream.uniformInt(0, 4)};
        profile.exec_ms = {series.avg_exec_ms, 2 * series.avg_exec_ms};
        w.profiles.push_back(profile);
    }

    // Provision 15% above the sum of per-function peaks (an upper
    // bound on simultaneous containers) so placement never evicts or
    // queues. Many small servers keep the legacy cold-placement scan
    // honest without inflating construction cost.
    w.cluster = sim::defaultHeterogeneousCluster();
    const std::size_t servers = static_cast<std::size_t>(
        peak_demand_mb * 23 / 20 / 2048 + 1);
    w.cluster.spec(Tier::HighEnd).server_count = servers;
    w.cluster.spec(Tier::HighEnd).memory_per_server_mb = 2048;
    w.cluster.spec(Tier::LowEnd).server_count = servers;
    w.cluster.spec(Tier::LowEnd).memory_per_server_mb = 2048;
    return w;
}

// ------------------------------------------------------------ agreement

sim::SimulationMetrics
runLegacy(const BenchWorkload &w)
{
    policies::OpenWhiskPolicy policy;
    legacy_sim::Simulator sim(w.tr, w.profiles, w.cluster, policy,
                              sim::SimulatorOptions{}.seed);
    return sim.run();
}

sim::SimulationMetrics
runLive(const BenchWorkload &w, const sim::SimCapacityHints &hints = {})
{
    policies::OpenWhiskPolicy policy;
    sim::SimulatorOptions options;
    options.hints = hints;
    sim::Simulator sim(w.tr, w.profiles, w.cluster, policy, options);
    return sim.run();
}

/** The live core with latency histograms attached (telemetry row). */
sim::SimulationMetrics
runLiveHist(const BenchWorkload &w, const sim::SimCapacityHints &hints,
            obs::RunRecorder &recorder)
{
    policies::OpenWhiskPolicy policy;
    sim::SimulatorOptions options;
    options.hints = hints;
    options.recorder = &recorder;
    sim::Simulator sim(w.tr, w.profiles, w.cluster, policy, options);
    return sim.run();
}

// --------------------------------------------------------- fixed row
//
// The digest row runs IceBreaker (the paper scheme) on a FIXED
// geometry, independent of --smoke and --functions: the metrics
// digest it reports must stay comparable across every invocation
// that ever wrote a baseline file.

constexpr std::size_t kFixedFunctions = 32;
constexpr std::size_t kFixedIntervals = 36;

/** The fixed-geometry digest row of the JSON report. */
struct FixedRow
{
    std::uint64_t events = 0;   //!< events of the fixed run
    std::string metrics_digest; //!< machine-independent
};

FixedRow
runFixed(const BenchConfig &cfg)
{
    BenchConfig fixed_cfg = cfg;
    fixed_cfg.num_functions = kFixedFunctions;
    fixed_cfg.num_intervals = kFixedIntervals;
    const BenchWorkload w = buildWorkload(fixed_cfg);
    core::IceBreakerPolicy policy;
    const sim::SimulationMetrics metrics =
        sim::runSimulation(w.tr, w.profiles, w.cluster, policy);
    FixedRow row;
    row.events = metrics.event_loop.totalPopped();
    row.metrics_digest = digestHex(digestMetrics(metrics));
    return row;
}

// --------------------------------------------------------------- timing

struct CoreTiming
{
    double wall_ms = 0.0;       //!< whole timed batch
    double events_per_sec = 0.0;
    double ns_per_event = 0.0;
};

/**
 * Time @p repeats complete simulations one after another. @p events
 * is the logical event count of ONE run.
 *
 * Reports the BEST (minimum) per-repeat time: contention on a shared
 * machine only ever adds time, so the minimum is the observation
 * closest to the true cost, and the ratio of two minima (the speedup
 * the --baseline gate enforces) is far more stable than the ratio of
 * medians.
 */
template <typename RunFn>
CoreTiming
timeCore(RunFn &&run_fn, std::size_t repeats, std::uint64_t events)
{
    const auto start = Clock::now();
    double best_run_ms = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
        const auto run_start = Clock::now();
        run_fn();
        best_run_ms = std::min(best_run_ms,
                               std::chrono::duration<double, std::milli>(
                                   Clock::now() - run_start)
                                   .count());
    }

    CoreTiming timing;
    timing.wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    timing.events_per_sec =
        static_cast<double>(events) / (best_run_ms / 1000.0);
    timing.ns_per_event =
        best_run_ms * 1e6 / static_cast<double>(events);
    return timing;
}

// ----------------------------------------------------------------- json

/** The telemetry-overhead row: histograms on vs off on the live core. */
struct TelemetryRow
{
    double events_per_sec_off = 0.0;
    double events_per_sec_on = 0.0;
    double overhead_ratio = 0.0; //!< on / off (1.0 = free)
};

void
writeJson(const BenchConfig &cfg, std::uint64_t events,
          std::uint64_t invocations, const CoreTiming &legacy,
          const CoreTiming &live, bool agree, long long calib_allocs,
          long long hinted_allocs, long long hinted_hist_allocs,
          const sim::EventLoopStats &stats, const FixedRow &fixed,
          const TelemetryRow &telemetry)
{
    std::ofstream out(cfg.json_path);
    out << "{\n";
    out << "  \"bench\": \"sim\",\n";
    out << "  \"workload\": {\"functions\": " << cfg.num_functions
        << ", \"intervals\": " << cfg.num_intervals
        << ", \"invocations\": " << invocations
        << ", \"events\": " << events << "},\n";
    out << "  \"repeats\": " << cfg.repeats << ",\n";
    out << "  \"agreement\": " << (agree ? "true" : "false") << ",\n";
    out << "  \"legacy\": {\"wall_ms\": " << legacy.wall_ms
        << ", \"events_per_sec\": " << legacy.events_per_sec
        << ", \"ns_per_event\": " << legacy.ns_per_event << "},\n";
    out << "  \"live\": {\"wall_ms\": " << live.wall_ms
        << ", \"events_per_sec\": " << live.events_per_sec
        << ", \"ns_per_event\": " << live.ns_per_event << "},\n";
    out << "  \"speedup_vs_legacy\": "
        << live.events_per_sec / legacy.events_per_sec << ",\n";
    out << "  \"allocations\": {\"calibration_run\": " << calib_allocs
        << ", \"hinted_run\": " << hinted_allocs
        << ", \"hinted_run_histograms\": " << hinted_hist_allocs
        << ", \"hinted_per_invocation\": "
        << static_cast<double>(hinted_allocs) /
            static_cast<double>(invocations)
        << "},\n";
    out << "  \"telemetry\": {\"events_per_sec_off\": "
        << telemetry.events_per_sec_off
        << ", \"events_per_sec_on\": " << telemetry.events_per_sec_on
        << ", \"overhead_ratio\": " << telemetry.overhead_ratio
        << "},\n";
    out << "  \"fixed\": {\"scheme\": \"icebreaker\""
        << ", \"functions\": " << kFixedFunctions
        << ", \"intervals\": " << kFixedIntervals
        << ", \"events\": " << fixed.events
        << ", \"metrics_digest\": \"" << fixed.metrics_digest
        << "\"},\n";
    out << "  \"event_loop\": {\"popped_total\": " << stats.totalPopped()
        << ", \"stale_expiry_events\": " << stats.stale_expiry_events
        << ", \"stale_evict_entries\": " << stats.stale_evict_entries
        << ", \"eviction_victims_examined\": "
        << stats.eviction_victims_examined
        << ", \"peak_live_containers\": " << stats.peak_live_containers
        << ", \"peak_pending_events\": " << stats.peak_pending_events
        << ", \"peak_bucket_events\": " << stats.peak_bucket_events
        << ", \"peak_evict_entries\": " << stats.peak_evict_entries
        << ", \"peak_wait_queue\": " << stats.peak_wait_queue << "}\n";
    out << "}\n";
}

/** Whole baseline file as a string; exits with a message if absent. */
std::string
readBaselineFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_sim: cannot read baseline %s\n",
                     path.c_str());
        std::exit(1);
    }
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

[[noreturn]] void
usage(int status)
{
    (status == 0 ? std::cout : std::cerr)
        << "usage: bench_sim [--functions N] [--intervals N]\n"
           "                 [--repeats R]\n"
           "                 [--json PATH] [--smoke]\n"
           "                 [--baseline PATH]\n";
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
                std::cerr << "bench_sim: missing value for " << arg << "\n";
                usage(1);
            }
            return argv[++i];
        };
        auto count = [&]() -> std::size_t {
            const std::optional<std::uint64_t> value =
                parseUintFlag("bench_sim", arg, next().c_str(), 1);
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
                std::cerr << "bench_sim: unknown option " << arg << "\n";
            usage(arg == "--help" ? 0 : 1);
        }
    }
    if (cfg.smoke) {
        cfg.num_functions = 16;
        cfg.num_intervals = 30;
        // Enough repeats for the best-of-N estimator to converge on a
        // noisy CI runner: smoke runs are ~50 ms, so this stays cheap.
        cfg.repeats = 7;
    }
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchConfig cfg = parseArgs(argc, argv);
    const BenchWorkload w = buildWorkload(cfg);

    // -------------------------------------------------- agreement gate
    const sim::SimulationMetrics legacy_metrics = runLegacy(w);
    const sim::SimulationMetrics live_metrics = runLive(w);
    const bool agree =
        digestMetrics(legacy_metrics) == digestMetrics(live_metrics);
    const std::uint64_t events = live_metrics.event_loop.totalPopped();
    const std::uint64_t invocations = live_metrics.invocations;
    std::printf("workload: %zu fns x %zu intervals, %llu invocations, "
                "%llu events\n",
                cfg.num_functions, cfg.num_intervals,
                static_cast<unsigned long long>(invocations),
                static_cast<unsigned long long>(events));
    std::printf("agreement (legacy == live metrics): %s\n",
                agree ? "OK" : "MISMATCH");

    // -------------------------------------------------- allocation probe
    sim::SimCapacityHints hints;
    hints.containers = live_metrics.event_loop.peak_live_containers;
    hints.events = live_metrics.event_loop.peak_pending_events;
    hints.events_per_bucket = live_metrics.event_loop.peak_bucket_events;
    hints.evict_entries = live_metrics.event_loop.peak_evict_entries;
    hints.wait_queue = live_metrics.event_loop.peak_wait_queue;

    long long calib_allocs = 0;
    long long hinted_allocs = 0;
    {
        policies::OpenWhiskPolicy policy;
        sim::Simulator sim(w.tr, w.profiles, w.cluster, policy, {});
        const long long before =
            bench::allocationCount();
        (void)sim.run();
        calib_allocs =
            bench::allocationCount() - before;
    }
    {
        policies::OpenWhiskPolicy policy;
        sim::SimulatorOptions options;
        options.hints = hints;
        sim::Simulator sim(w.tr, w.profiles, w.cluster, policy, options);
        const long long before =
            bench::allocationCount();
        (void)sim.run();
        hinted_allocs =
            bench::allocationCount() - before;
    }
    // The same hinted run with latency histograms attached: record()
    // is array increments into a preconstructed set, so telemetry must
    // not reintroduce steady-state allocations (recorder construction
    // sits outside the counted region, like the hints).
    long long hinted_hist_allocs = 0;
    {
        policies::OpenWhiskPolicy policy;
        obs::ObsConfig obs_config;
        obs_config.histograms = true;
        obs::RunRecorder recorder(obs_config);
        sim::SimulatorOptions options;
        options.hints = hints;
        options.recorder = &recorder;
        sim::Simulator sim(w.tr, w.profiles, w.cluster, policy, options);
        const long long before =
            bench::allocationCount();
        (void)sim.run();
        hinted_hist_allocs =
            bench::allocationCount() - before;
    }
    std::printf("allocations in run(): calibration %lld, hinted %lld "
                "(%.6f per invocation), hinted+histograms %lld\n",
                calib_allocs, hinted_allocs,
                static_cast<double>(hinted_allocs) /
                    static_cast<double>(invocations),
                hinted_hist_allocs);

    // ----------------------------------------------------------- timing
    // One untimed warmup of each core, then the timed batches.
    (void)runLegacy(w);
    (void)runLive(w, hints);
    const CoreTiming legacy_timing =
        timeCore([&] { (void)runLegacy(w); }, cfg.repeats, events);
    const CoreTiming live_timing =
        timeCore([&] { (void)runLive(w, hints); }, cfg.repeats, events);
    const double speedup =
        live_timing.events_per_sec / legacy_timing.events_per_sec;

    std::printf("legacy: %8.0f events/sec  (%7.1f ns/event)\n",
                legacy_timing.events_per_sec, legacy_timing.ns_per_event);
    std::printf("live:   %8.0f events/sec  (%7.1f ns/event)\n",
                live_timing.events_per_sec, live_timing.ns_per_event);
    std::printf("speedup vs legacy: %.2fx\n", speedup);

    // --------------------------------------------- telemetry overhead
    // Histograms on vs off on the hinted live core, best-of-N on both
    // sides so the overhead ratio is a ratio of two minima (same
    // estimator as the legacy/live gate). The recorder
    // persists across repeats: construction is setup cost, and
    // record() cost does not depend on accumulated counts.
    obs::ObsConfig telemetry_config;
    telemetry_config.histograms = true;
    obs::RunRecorder telemetry_recorder(telemetry_config);
    (void)runLiveHist(w, hints, telemetry_recorder); // warmup
    const auto measureTelemetry = [&] {
        const CoreTiming off = timeCore(
            [&] { (void)runLive(w, hints); }, cfg.repeats, events);
        const CoreTiming on = timeCore(
            [&] { (void)runLiveHist(w, hints, telemetry_recorder); },
            cfg.repeats, events);
        TelemetryRow row;
        row.events_per_sec_off = off.events_per_sec;
        row.events_per_sec_on = on.events_per_sec;
        row.overhead_ratio = on.events_per_sec / off.events_per_sec;
        return row;
    };
    // Contention only ever lowers the ratio, so on a miss re-measure
    // and keep the best round. This happens before the JSON is
    // written, so the file records the value the gate judges.
    TelemetryRow telemetry = measureTelemetry();
    for (int round = 2; telemetry.overhead_ratio < 0.98 && round <= 5;
         ++round) {
        const TelemetryRow again = measureTelemetry();
        std::printf("telemetry re-measure round %d: %.5f\n", round,
                    again.overhead_ratio);
        if (again.overhead_ratio > telemetry.overhead_ratio)
            telemetry = again;
    }
    std::printf("telemetry: %8.0f events/sec histograms off, %8.0f "
                "events/sec on (ratio %.4f)\n",
                telemetry.events_per_sec_off,
                telemetry.events_per_sec_on, telemetry.overhead_ratio);

    // ------------------------------------------------- fixed row
    // Fixed geometry (see kFixed* above): its digest is comparable
    // across hosts and across every bench invocation.
    const FixedRow fixed = runFixed(cfg);
    std::printf("fixed row (%zux%zu, icebreaker): digest %s\n",
                kFixedFunctions, kFixedIntervals,
                fixed.metrics_digest.c_str());

    if (!cfg.json_path.empty()) {
        writeJson(cfg, events, invocations, legacy_timing, live_timing,
                  agree, calib_allocs, hinted_allocs, hinted_hist_allocs,
                  live_metrics.event_loop, fixed, telemetry);
        std::printf("wrote %s\n", cfg.json_path.c_str());
    }

    if (!agree) {
        std::fprintf(stderr, "FAIL: legacy and live metrics differ\n");
        return 1;
    }
    if (hinted_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: hinted run() performed %lld allocations\n",
                     hinted_allocs);
        return 1;
    }
    if (hinted_hist_allocs != 0) {
        std::fprintf(stderr,
                     "FAIL: hinted run() with histograms performed "
                     "%lld allocations\n",
                     hinted_hist_allocs);
        return 1;
    }
    if (!cfg.baseline_path.empty()) {
        const std::string baseline =
            readBaselineFile(cfg.baseline_path);

        // Ratio-of-rates on the same machine in the same process:
        // machine speed cancels out, leaving only what the live core
        // gained or lost relative to the frozen control since the
        // baseline was committed. Contention can only make a measured
        // speedup look WORSE (it slows the live batch or speeds the
        // comparison by stalling nothing), never better, so on a miss
        // the gate re-measures and keeps the best round: noise is
        // shed, while a genuine regression depresses every round and
        // still fails.
        const std::optional<double> base = harness::findJsonNumber(
            baseline, "speedup_vs_legacy");
        if (!base) {
            std::fprintf(stderr,
                         "bench_sim: no speedup_vs_legacy in %s\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        const double floor = *base * 0.98;
        double best = speedup;
        for (int round = 2; best < floor && round <= 5; ++round) {
            const CoreTiming lt = timeCore(
                [&] { (void)runLegacy(w); }, cfg.repeats, events);
            const CoreTiming vt = timeCore(
                [&] { (void)runLive(w, hints); }, cfg.repeats, events);
            const double again = vt.events_per_sec / lt.events_per_sec;
            std::printf("gate re-measure round %d: %.5f\n", round,
                        again);
            best = std::max(best, again);
        }
        const harness::GateResult ratio_gate = harness::gateRatio(
            "speedup ratio", best, *base, 0.02);
        std::printf("%s\n", ratio_gate.message.c_str());
        if (!ratio_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         ratio_gate.message.c_str());
            return 1;
        }

        // Telemetry gates against 1.0, not the baseline file: the
        // histogram pillar must stay within 2% of free, which is a
        // property of the build, not of this machine. Its re-measure
        // rounds already ran before the JSON was written.
        const harness::GateResult telemetry_gate = harness::gateRatio(
            "telemetry overhead", telemetry.overhead_ratio, 1.0, 0.02);
        std::printf("%s\n", telemetry_gate.message.c_str());
        if (!telemetry_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         telemetry_gate.message.c_str());
            return 1;
        }

        // The fixed digest is machine-independent: exact equality.
        const std::optional<std::string> committed =
            harness::findJsonString(baseline, "metrics_digest");
        if (!committed) {
            std::fprintf(stderr, "bench_sim: no metrics_digest in %s\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        const harness::GateResult digest_gate = harness::gateDigest(
            "metrics digest", fixed.metrics_digest, *committed);
        std::printf("%s\n", digest_gate.message.c_str());
        if (!digest_gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n",
                         digest_gate.message.c_str());
            return 1;
        }
    }
    return 0;
}
