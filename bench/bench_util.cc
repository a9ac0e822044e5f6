#include "bench/bench_util.hh"

#include <cstdlib>
#include <optional>
#include <string_view>

#include "common/cli.hh"
#include "common/logging.hh"
#include "sim/metrics_summary.hh"

namespace bench
{

using namespace iceb;

harness::Workload
standardWorkload(std::size_t num_functions, std::size_t num_intervals)
{
    trace::SyntheticConfig config;
    config.num_functions = num_functions;
    config.num_intervals = num_intervals;
    config.min_memory_mb = 256;
    return harness::makeWorkload(config);
}

harness::Workload
sweepWorkload()
{
    return standardWorkload(260, 360);
}

harness::Workload
smokeWorkload()
{
    return standardWorkload(48, 60);
}

namespace
{

[[noreturn]] void
usage(const char *prog, int status)
{
    std::cout
        << "usage: " << prog << " [options]\n"
        << "  --threads N   worker threads (0 = hardware concurrency; "
           "default 0)\n"
        << "  --seeds S     base seed for derived per-run RNG streams\n"
        << "  --repeats R   seed replicates per experiment cell "
           "(default 1)\n"
        << "  --smoke       shrunken workload for CI smoke runs\n"
        << "  --trace-out F     write Chrome trace_event JSON "
           "(Perfetto-viewable)\n"
        << "  --probe-out F     write interval/forecast probes as CSV\n"
        << "  --hist-out F      write latency histograms as tidy CSV\n"
        << "  --manifest-out F  write one JSON manifest line per run\n"
        << "  --help        this message\n"
        << "\nOutput (stdout and observability files) is "
           "byte-identical for every\n--threads value.\n";
    std::exit(status);
}

/** "mean +-stddev" with pct formatting; bare mean for single runs. */
std::string
pctWithSpread(const sim::ValueStats &stats)
{
    std::string cell = TextTable::pct(stats.mean);
    if (stats.count > 1)
        cell += " +-" + TextTable::pct(stats.stddev);
    return cell;
}

/** "mean +-stddev" with num formatting; bare mean for single runs. */
std::string
numWithSpread(const sim::ValueStats &stats, int precision)
{
    std::string cell = TextTable::num(stats.mean, precision);
    if (stats.count > 1)
        cell += " +-" + TextTable::num(stats.stddev, precision);
    return cell;
}

} // namespace

BenchOptions
parseBenchOptions(int argc, char **argv)
{
    BenchOptions options;
    const char *prog = argc > 0 ? argv[0] : "bench";
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto value = [&](std::string_view flag) {
            if (i + 1 >= argc) {
                std::cerr << prog << ": " << flag
                          << " needs a value\n";
                usage(prog, 1);
            }
            return argv[++i];
        };
        const auto number = [&](std::string_view flag,
                                std::uint64_t lo = 0) {
            const std::optional<std::uint64_t> parsed =
                parseUintFlag(prog, flag, value(flag), lo);
            if (!parsed)
                usage(prog, 1);
            return *parsed;
        };
        if (arg == "--help" || arg == "-h") {
            usage(prog, 0);
        } else if (arg == "--threads") {
            options.threads = static_cast<std::size_t>(number(arg));
        } else if (arg == "--repeats") {
            options.repeats = static_cast<std::size_t>(number(arg, 1));
        } else if (arg == "--seeds" || arg == "--seed") {
            options.base_seed = number(arg);
        } else if (arg == "--smoke") {
            options.smoke = true;
        } else if (arg == "--trace-out") {
            options.observation.trace_path = value(arg);
        } else if (arg == "--probe-out") {
            options.observation.probe_path = value(arg);
        } else if (arg == "--hist-out") {
            options.observation.hist_path = value(arg);
        } else if (arg == "--manifest-out") {
            options.observation.manifest_path = value(arg);
        } else {
            std::cerr << prog << ": unknown option '" << arg << "'\n";
            usage(prog, 1);
        }
    }
    return options;
}

harness::RunnerOptions
runnerOptions(const BenchOptions &options)
{
    harness::RunnerOptions ro;
    ro.threads = options.threads;
    ro.repeats = options.repeats;
    ro.base_seed = options.base_seed;
    if (options.observation.enabled())
        ro.observation = &options.observation;
    return ro;
}

void
printSchemeComparison(const std::string &title,
                      const std::vector<harness::SchemeSummary> &results)
{
    const sim::MetricsSummary &baseline = results.front().summary;
    TextTable table(title);
    table.setHeader({"scheme", "keep-alive $", "ka impr.", "svc (ms)",
                     "svc impr.", "warm", "cold (ms)", "wait (ms)"});
    for (const auto &result : results) {
        const sim::MetricsSummary &s = result.summary;
        table.addRow({
            harness::schemeName(result.scheme),
            numWithSpread(s.keep_alive_cost, 3),
            TextTable::pct(harness::improvementOver(
                baseline.keep_alive_cost.mean,
                s.keep_alive_cost.mean)),
            numWithSpread(s.mean_service_ms, 0),
            TextTable::pct(harness::improvementOver(
                baseline.mean_service_ms.mean, s.mean_service_ms.mean)),
            TextTable::pct(s.warm_start_fraction.mean),
            TextTable::num(s.mean_cold_ms.mean, 0),
            TextTable::num(s.mean_wait_ms.mean, 1),
        });
    }
    table.print(std::cout);
}

std::vector<ComparisonScheme>
paperSchemes()
{
    std::vector<ComparisonScheme> schemes;
    for (harness::Scheme scheme : harness::allSchemes())
        schemes.push_back(ComparisonScheme{
            harness::schemeKey(scheme), harness::schemeName(scheme)});
    return schemes;
}

void
runGridComparison(const std::string &title,
                  const std::string &label_header,
                  const harness::Workload &workload,
                  const std::vector<harness::SweepPoint> &points,
                  const std::vector<ComparisonScheme> &schemes,
                  const BenchOptions &options, bool show_warm)
{
    ICEB_ASSERT(schemes.size() >= 2,
                "grid comparison needs a baseline plus >= 1 scheme");
    std::vector<std::string> keys;
    keys.reserve(schemes.size());
    for (const ComparisonScheme &scheme : schemes)
        keys.push_back(scheme.key);

    const std::vector<harness::RunSpec> grid = harness::buildGrid(
        keys, workload, points, options.base_seed, options.repeats);
    harness::ExperimentRunner runner(options.threads);
    if (options.observation.enabled())
        runner.setObservation(options.observation);
    const std::vector<harness::RunResult> results = runner.run(grid);

    const std::size_t repeats = options.repeats;
    const std::size_t point_stride = schemes.size() * repeats;

    TextTable table(title);
    std::vector<std::string> header;
    if (!label_header.empty())
        header.push_back(label_header);
    header.insert(header.end(), {"scheme", "ka impr.", "svc impr."});
    if (show_warm)
        header.push_back("warm");
    table.setHeader(header);

    for (std::size_t p = 0; p < points.size(); ++p) {
        const std::size_t base_off = p * point_stride;
        bool first = true;
        for (std::size_t s = 1; s < schemes.size(); ++s) {
            const std::size_t scheme_off = base_off + s * repeats;
            // Pair replicate r of this scheme with replicate r of the
            // baseline: both saw the same derived arrival jitter, so
            // the improvement distribution is the paired one.
            std::vector<double> ka_impr, svc_impr, warm;
            ka_impr.reserve(repeats);
            svc_impr.reserve(repeats);
            warm.reserve(repeats);
            for (std::size_t r = 0; r < repeats; ++r) {
                const sim::SimulationMetrics &base =
                    results[base_off + r].metrics;
                const sim::SimulationMetrics &run =
                    results[scheme_off + r].metrics;
                ka_impr.push_back(harness::improvementOver(
                    base.totalKeepAliveCost(),
                    run.totalKeepAliveCost()));
                svc_impr.push_back(harness::improvementOver(
                    base.meanServiceMs(), run.meanServiceMs()));
                warm.push_back(run.warmStartFraction());
            }
            std::vector<std::string> row;
            if (!label_header.empty())
                row.push_back(first ? points[p].label : "");
            row.push_back(schemes[s].display);
            row.push_back(pctWithSpread(sim::ValueStats::of(ka_impr)));
            row.push_back(pctWithSpread(sim::ValueStats::of(svc_impr)));
            if (show_warm)
                row.push_back(
                    pctWithSpread(sim::ValueStats::of(warm)));
            table.addRow(std::move(row));
            first = false;
        }
        if (p + 1 < points.size())
            table.addRule();
    }
    table.print(std::cout);
}

} // namespace bench
