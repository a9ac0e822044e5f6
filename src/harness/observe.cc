#include "harness/observe.hh"

#include <bit>
#include <fstream>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/histogram.hh"
#include "obs/manifest.hh"
#include "obs/probes.hh"
#include "obs/trace_sink.hh"

namespace iceb::harness
{

std::string
runDisplayName(const RunSpec &spec)
{
    std::string name = spec.scheme;
    if (!spec.label.empty()) {
        name += ':';
        name += spec.label;
    }
    if (spec.run_index != 0) {
        name += '#';
        name += std::to_string(spec.run_index);
    }
    return name;
}

std::uint64_t
digestClusterConfig(const sim::ClusterConfig &config)
{
    obs::Digest digest;
    digest.addString(config.name);
    for (const sim::TierSpec &tier : config.tiers) {
        digest.addU64(static_cast<std::uint64_t>(tier.tier));
        digest.addU64(tier.server_count);
        digest.addI64(tier.memory_per_server_mb);
        digest.addDouble(tier.dollars_per_gb_hour);
        digest.addDouble(tier.capital_cost);
    }
    return digest.value();
}

std::uint64_t
digestMetrics(const sim::SimulationMetrics &m, std::uint64_t state)
{
    obs::Digest digest(state);
    const auto add_bits = [&digest](double v) {
        digest.addU64(std::bit_cast<std::uint64_t>(v));
    };
    digest.addU64(m.invocations);
    digest.addU64(m.cold_starts);
    digest.addU64(m.warm_starts);
    digest.addU64(m.cold_no_container);
    digest.addU64(m.cold_all_busy);
    digest.addU64(m.cold_setup_attach);
    add_bits(m.sum_service_ms);
    add_bits(m.sum_wait_ms);
    add_bits(m.sum_cold_ms);
    add_bits(m.sum_exec_ms);
    add_bits(m.sum_overhead_ms);
    for (const auto *samples :
         {&m.service_times_ms, &m.service_times_high_ms,
          &m.service_times_low_ms}) {
        digest.addU64(samples->size());
        for (float sample : *samples)
            digest.addU64(std::bit_cast<std::uint32_t>(sample));
    }
    for (const sim::FunctionMetrics &fm : m.per_function) {
        digest.addU64(fm.invocations);
        digest.addU64(fm.cold_starts);
        digest.addU64(fm.warm_starts);
        add_bits(fm.sum_service_ms);
        add_bits(fm.sum_wait_ms);
        add_bits(fm.sum_cold_ms);
        add_bits(fm.sum_exec_ms);
        add_bits(fm.keep_alive_cost);
    }
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        add_bits(m.keep_alive[t].successful_cost);
        add_bits(m.keep_alive[t].wasteful_cost);
        add_bits(m.keep_alive[t].wasted_mb_ms);
    }
    return digest.value();
}

namespace
{

std::ofstream
openOrDie(const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("cannot open observability output '", path, "'");
    return out;
}

obs::RunManifest
buildManifest(std::size_t index, const RunResult &result,
              const obs::RunRecorder *recorder)
{
    const RunSpec &spec = result.spec;
    const sim::SimulationMetrics &m = result.metrics;

    obs::RunManifest manifest;
    manifest.run_index = static_cast<std::uint32_t>(index);
    manifest.scheme = spec.scheme;
    manifest.label = spec.label;
    manifest.replicate = spec.run_index;
    manifest.base_seed = spec.base_seed;
    manifest.derived_seed = deriveSeed(spec.base_seed, spec.run_index);
    manifest.cluster = spec.cluster.name;
    manifest.config_digest = digestClusterConfig(spec.cluster);

    const trace::Trace &tr = spec.workload->trace;
    manifest.workload_functions = tr.numFunctions();
    manifest.workload_intervals = tr.numIntervals();
    std::uint64_t invocations = 0;
    for (FunctionId fn = 0; fn < tr.numFunctions(); ++fn)
        invocations += tr.function(fn).totalInvocations();
    manifest.workload_invocations = invocations;

    manifest.metrics = {
        {"invocations", static_cast<double>(m.invocations)},
        {"cold_starts", static_cast<double>(m.cold_starts)},
        {"warm_starts", static_cast<double>(m.warm_starts)},
        {"cold_no_container", static_cast<double>(m.cold_no_container)},
        {"cold_all_busy", static_cast<double>(m.cold_all_busy)},
        {"cold_setup_attach",
         static_cast<double>(m.cold_setup_attach)},
        {"mean_service_ms", m.meanServiceMs()},
        {"mean_cold_ms", m.meanColdMs()},
        {"warm_start_fraction", m.warmStartFraction()},
        {"keep_alive_cost_high",
         m.tierKeepAlive(Tier::HighEnd).totalCost()},
        {"keep_alive_cost_low",
         m.tierKeepAlive(Tier::LowEnd).totalCost()},
        {"total_keep_alive_cost", m.totalKeepAliveCost()},
    };
    manifest.metrics_digest = digestMetrics(m);

    if (recorder != nullptr) {
        if (const obs::TraceSink *sink = recorder->traceSinkIfEnabled()) {
            manifest.trace_recorded = sink->recorded();
            manifest.trace_dropped = sink->dropped();
        }
        if (const obs::ProbeTable *probes =
                recorder->probeTableIfEnabled()) {
            manifest.probe_samples = probes->intervalSampleCount() +
                probes->forecastSampleCount();
        }
        if (const obs::HistogramSet *hists =
                recorder->histogramsIfEnabled()) {
            // Non-empty series only: wall timers stay out of
            // deterministic manifests unless wall timing was on.
            for (const obs::NamedHistogram &named :
                 obs::namedHistograms(*hists)) {
                const obs::LatencyHistogram &h = *named.hist;
                if (h.count() == 0)
                    continue;
                obs::HistogramDigest digest;
                digest.name = named.series;
                if (named.tier[0] != '\0') {
                    digest.name += '/';
                    digest.name += named.tier;
                }
                digest.count = h.count();
                digest.p50 = h.quantile(0.5);
                digest.p95 = h.quantile(0.95);
                digest.p99 = h.quantile(0.99);
                digest.max = h.max();
                manifest.histograms.push_back(std::move(digest));
            }
        }
    }
    return manifest;
}

} // namespace

void
writeObservations(
    const ObservationOptions &options,
    const std::vector<RunResult> &results,
    const std::vector<std::unique_ptr<obs::RunRecorder>> &recorders)
{
    ICEB_ASSERT(recorders.size() == results.size(),
                "recorder/result vectors must be parallel");

    if (!options.trace_path.empty()) {
        std::vector<obs::TraceRun> runs;
        runs.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            obs::TraceRun run;
            run.name = runDisplayName(results[i].spec);
            if (recorders[i] != nullptr) {
                run.trace = recorders[i]->traceSinkIfEnabled();
                run.probes = recorders[i]->probeTableIfEnabled();
            }
            runs.push_back(std::move(run));
        }
        std::ofstream out = openOrDie(options.trace_path);
        obs::writeChromeTrace(out, runs);
    }

    if (!options.probe_path.empty()) {
        std::vector<obs::ProbeRun> runs;
        runs.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            obs::ProbeRun run;
            run.run = runDisplayName(results[i].spec);
            if (recorders[i] != nullptr)
                run.probes = recorders[i]->probeTableIfEnabled();
            runs.push_back(std::move(run));
        }
        std::ofstream out = openOrDie(options.probe_path);
        obs::writeProbeCsv(out, runs);
    }

    if (!options.hist_path.empty()) {
        std::vector<obs::HistogramRun> runs;
        runs.reserve(results.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            obs::HistogramRun run;
            run.run = runDisplayName(results[i].spec);
            if (recorders[i] != nullptr)
                run.set = recorders[i]->histogramsIfEnabled();
            runs.push_back(std::move(run));
        }
        std::ofstream out = openOrDie(options.hist_path);
        obs::writeHistogramCsv(out, runs);
    }

    if (!options.manifest_path.empty()) {
        std::ofstream out = openOrDie(options.manifest_path);
        for (std::size_t i = 0; i < results.size(); ++i) {
            obs::writeManifestLine(
                out, buildManifest(i, results[i], recorders[i].get()));
        }
    }
}

} // namespace iceb::harness
