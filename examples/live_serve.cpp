/**
 * @file
 * Serving-mode quickstart: the same IceBreaker decision engine, first
 * batch (sim::runSimulation), then streamed event-by-event
 * (ReplayDriver) with optional wall-clock pacing and live probe export
 * — and a check that both paths produce identical results.
 *
 * The point of the exercise: the engine never sees the trace. It is
 * fed per-interval arrival observations and execution outcomes as
 * they happen, exactly the information a real serving front end has,
 * and its warm-up actions come back out as typed Decision records a
 * deployer could apply to a real cluster.
 *
 * Flags:
 *   --pace X          replay X simulated ms per wall ms (e.g. 60000
 *                     replays a minute per wall millisecond; default
 *                     0 = as fast as possible)
 *   --probe-out FILE  stream per-interval probe CSV (tail -f friendly)
 *   --trace-out FILE  write a Chrome trace of the replay
 *   --stats-json FILE rewrite a JSON stats snapshot every interval
 *                     (counters + histogram digests; CI-friendly)
 *   --stats-port N    serve Prometheus text on localhost:N while the
 *                     replay runs (0 = pick an ephemeral port)
 *   --intervals N     workload length in decision intervals (def. 240)
 *   --functions N     workload size in functions (default 100)
 *   --smoke           small workload (48 fns x 60 intervals) for CI
 */

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "common/cli.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/registry.hh"
#include "serve/drivers.hh"
#include "serve/stats_exporter.hh"
#include "sim/simulator.hh"

namespace
{

using namespace iceb;

struct Cli
{
    double pace = 0.0;
    std::string probe_out;
    std::string trace_out;
    std::string stats_json;
    int stats_port = -1;
    std::size_t intervals = 240;
    std::size_t functions = 100;
};

Cli
parseCli(int argc, char **argv)
{
    Cli cli;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "missing value for " << arg << "\n";
                std::exit(2);
            }
            return argv[++i];
        };
        const auto count = [&](std::uint64_t hi) {
            const std::optional<std::uint64_t> parsed =
                parseUintFlag("live_serve", arg, value().c_str(), 0, hi);
            if (!parsed)
                std::exit(2);
            return *parsed;
        };
        if (arg == "--pace") {
            const std::string text = value();
            char *end = nullptr;
            errno = 0;
            cli.pace = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
                std::cerr << "live_serve: bad value '" << text
                          << "' for " << arg << "\n";
                std::exit(2);
            }
        } else if (arg == "--probe-out") {
            cli.probe_out = value();
        } else if (arg == "--trace-out") {
            cli.trace_out = value();
        } else if (arg == "--stats-json") {
            cli.stats_json = value();
        } else if (arg == "--stats-port") {
            cli.stats_port = static_cast<int>(count(65535));
        } else if (arg == "--smoke") {
            cli.intervals = 60;
            cli.functions = 48;
        } else if (arg == "--intervals") {
            cli.intervals = static_cast<std::size_t>(count(SIZE_MAX));
        } else if (arg == "--functions") {
            cli.functions = static_cast<std::size_t>(count(SIZE_MAX));
        } else {
            std::cerr << "unknown flag " << arg << "\n";
            std::exit(2);
        }
    }
    return cli;
}

} // namespace

int
main(int argc, char **argv)
{
    const Cli cli = parseCli(argc, argv);

    trace::SyntheticConfig config;
    config.num_functions = cli.functions;
    config.num_intervals = cli.intervals;
    const harness::Workload workload = harness::makeWorkload(config);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    // ------------------------------------------------ batch anchor
    const std::unique_ptr<serve::DecisionEngine> batch_engine =
        harness::makeDecisionEngineByName("icebreaker");
    const sim::SimulationMetrics batch_metrics = sim::runSimulation(
        workload.trace, workload.profiles, cluster, *batch_engine);

    // -------------------------------------------- streaming replay
    // A fresh engine: the replay must rebuild all history state from
    // the streamed observations alone.
    const std::unique_ptr<serve::DecisionEngine> engine =
        harness::makeDecisionEngineByName("icebreaker");

    std::ofstream probe_file;
    std::ofstream trace_file;
    serve::ReplayOptions options;
    options.acceleration = cli.pace;
    options.run_label = "icebreaker-replay";
    if (!cli.probe_out.empty()) {
        probe_file.open(cli.probe_out);
        options.probe_csv = &probe_file;
    }
    if (!cli.trace_out.empty()) {
        trace_file.open(cli.trace_out);
        options.chrome_trace = &trace_file;
    }
    std::unique_ptr<serve::StatsExporter> stats;
    if (!cli.stats_json.empty() || cli.stats_port >= 0) {
        serve::StatsExporterOptions stats_options;
        stats_options.json_path = cli.stats_json;
        stats_options.http_port = cli.stats_port;
        stats = std::make_unique<serve::StatsExporter>(stats_options);
        options.stats = stats.get();
        if (stats->port() >= 0) {
            std::cout << "serving Prometheus text on "
                      << "http://localhost:" << stats->port()
                      << "/metrics\n";
        }
    }
    const std::size_t report_every =
        cli.intervals >= 8 ? cli.intervals / 8 : 1;
    options.on_interval =
        [&](const serve::ReplayProgress &progress) {
            if (static_cast<std::size_t>(progress.interval) %
                    report_every ==
                0) {
                std::cout << "interval " << progress.interval
                          << "  t=" << progress.sim_time_ms / 1000
                          << "s  decisions=" << progress.decisions
                          << "\n";
            }
        };

    serve::ReplayDriver replay(workload.trace, workload.profiles,
                               cluster, *engine, options);
    const sim::SimulationMetrics replay_metrics = replay.run();

    // A peek at what the engine actually decided.
    const std::vector<serve::Decision> decisions =
        engine->drainDecisions();
    std::cout << "\nengine issued " << decisions.size()
              << " warm-up decisions; last few:\n";
    const std::size_t show = decisions.size() < 5 ? decisions.size() : 5;
    for (std::size_t i = decisions.size() - show;
         i < decisions.size(); ++i) {
        const serve::Decision &d = decisions[i];
        std::cout << "  interval " << d.interval << ": "
                  << serve::decisionKindName(d.kind) << " fn=" << d.fn
                  << " tier=" << tierName(d.tier) << " count=" << d.count
                  << " granted=" << d.provisioned << "\n";
    }

    TextTable table("Batch vs streamed replay (must agree exactly)");
    table.setHeader({"path", "keep-alive $", "svc (ms)", "warm"});
    table.addRow({"runSimulation (batch)",
                  TextTable::num(batch_metrics.totalKeepAliveCost(), 4),
                  TextTable::num(batch_metrics.meanServiceMs(), 2),
                  TextTable::pct(batch_metrics.warmStartFraction())});
    table.addRow({"ReplayDriver (streamed)",
                  TextTable::num(replay_metrics.totalKeepAliveCost(), 4),
                  TextTable::num(replay_metrics.meanServiceMs(), 2),
                  TextTable::pct(replay_metrics.warmStartFraction())});
    table.print(std::cout);

    const bool identical =
        batch_metrics.totalKeepAliveCost() ==
            replay_metrics.totalKeepAliveCost() &&
        batch_metrics.meanServiceMs() ==
            replay_metrics.meanServiceMs() &&
        batch_metrics.warmStartFraction() ==
            replay_metrics.warmStartFraction();
    std::cout << (identical
                      ? "\nOK: the streamed replay reproduced the "
                        "batch run exactly.\n"
                      : "\nMISMATCH: replay diverged from batch!\n");
    return identical ? 0 : 1;
}
