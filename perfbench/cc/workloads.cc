#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>

#include "core/icebreaker.hh"
#include "harness/experiment.hh"
#include "harness/registry.hh"
#include "harness/runner.hh"
#include "serve/decision_engine.hh"
#include "serve/drivers.hh"
#include "sim/cluster_config.hh"
#include "sim/simulator.hh"
#include "sim/trace_source.hh"
#include "trace/synthetic.hh"
#include "workload/benchmark_suite.hh"
#include "workload/profile_matcher.hh"

namespace perfbench
{

namespace
{

/** The paper's per-interval FIP+PDM overhead claim (Sec. 5). */
constexpr double kDecisionBudgetMs = 30.0;

/** Default simulation seed (SimulatorOptions and the runner's base). */
constexpr std::uint64_t kSimSeed = harness::kDefaultBaseSeed;

/** Worker threads of fig6's runner grid. */
constexpr std::size_t kThreads = 4;

/**
 * Worker threads of serve-azure's forecaster. Each interval waits for
 * the slowest worker. On a 4-core host, 4 workers made the replay 50%
 * slower whenever one core was busy elsewhere, and 3 still varied by
 * about 25% from minute to minute; 2 varied by about 5%.
 */
constexpr std::size_t kServeThreads = 2;

// ---------------------------------------------------------------- host

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
            1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

// ---------------------------------------------------------- statistics

/** Nearest-rank quantile; 0 for an empty sample. */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(values.size())));
    return values[index - 1];
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1
        ? values[mid]
        : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Cluster composition scaled like bench_scale: every tier x factor. */
sim::ClusterConfig
scaledCluster(std::size_t factor)
{
    sim::ClusterConfig cluster = sim::defaultHeterogeneousCluster();
    for (auto &tier : cluster.tiers)
        tier.server_count *= factor;
    return cluster;
}

// ------------------------------------------------------ workload model

struct SetupTimes
{
    double total_s = 0.0;
    double generate_s = 0.0;
    double match_s = 0.0;
    double ingest_s = 0.0; //!< streamed ingest only (0 when materialized)
    std::size_t spill_runs = 0;
    double spilled_mb = 0.0;
};

struct SchemeRun
{
    std::string scheme;
    sim::SimulationMetrics metrics;
};

/** One pass: every scheme run of the workload, once. */
struct Pass
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    std::vector<SchemeRun> runs;
    std::vector<RunProbe> probes;
    std::vector<double> boundary_ms; //!< serve replay: boundary to boundary
    std::uint64_t decisions = 0;     //!< serve replay: engine decisions
};

/** The arrival-source layer's cost on this workload's inputs. */
struct SourceLayer
{
    double ingest_s = 0.0;
    double window_s = 0.0; //!< every window of one horizon, once
};

/**
 * Build a MaterializedTraceSource (what every materialized run builds)
 * and fetch each window once, timing both.
 */
SourceLayer
timeMaterializedSource(const trace::Trace &tr, std::uint64_t seed)
{
    SourceLayer layer;
    const Clock::time_point t0 = Clock::now();
    sim::MaterializedTraceSource source(tr, seed);
    const Clock::time_point t1 = Clock::now();
    source.beginRun();
    for (std::size_t iv = 0; iv < source.numIntervals(); ++iv)
        (void)source.intervalWindow(static_cast<IntervalIndex>(iv));
    const Clock::time_point t2 = Clock::now();
    layer.ingest_s = secondsBetween(t0, t1);
    layer.window_s = secondsBetween(t1, t2);
    return layer;
}

class Bench
{
  public:
    explicit Bench(const RunConfig &config) : config_(config) {}
    virtual ~Bench() = default;

    Bench(const Bench &) = delete;
    Bench &operator=(const Bench &) = delete;

    /** Setups per run; setup_s is their median. Materialized setups
     * take tens of milliseconds, so many of them keep the median steady. */
    virtual std::size_t setupRepeats() const { return 21; }

    /** (Re)build the workload's inputs. */
    virtual SetupTimes setup() = 0;

    /** Every scheme run once, decorated with the timing probes. */
    virtual Pass pass(bool traced) = 0;

    /** The same runs undecorated (the byte-identity reference). */
    virtual std::vector<SchemeRun> plainRuns() = 0;

    /** Runs whose interval latency is reported ("" = every run). */
    virtual std::string decider() const = 0;

    /** Scheme whose cost and service time are reported relative to
     * OpenWhisk's on the same workload. */
    virtual std::string improver() const = 0;

    /** Failed ops of @p pass; @p first is the run's first pass. */
    virtual std::uint64_t check(const Pass &pass, const Pass &first) = 0;

    /** Source-layer cost (traced runs). */
    virtual SourceLayer sourceLayer(const Pass &traced,
                                    const SetupTimes &setup) = 0;

  protected:
    /** Digest equality with the first pass (deterministic replays). */
    static bool sameAsFirst(const SchemeRun &run, const Pass &first)
    {
        for (const SchemeRun &other : first.runs) {
            if (other.scheme == run.scheme)
                return hashMetrics(other.metrics) == hashMetrics(run.metrics);
        }
        return false;
    }

    const RunConfig &config_;
    ProbeCollector collector_;
};

// ------------------------------------------------------------- fig6

/**
 * The standard figure workload (bench::standardWorkload) through one
 * ExperimentRunner grid: the experiment users run most, and the one
 * whose time is almost all IceBreaker forecasting.
 */
class Fig6Bench final : public Bench
{
  public:
    explicit Fig6Bench(const RunConfig &config) : Bench(config)
    {
        for (harness::Scheme scheme : harness::allSchemes()) {
            const std::string key = harness::schemeKey(scheme);
            keys_.push_back(key);
            timed_keys_.push_back("perfbench." + key);
            registrations_.push_back(
                std::make_unique<harness::ScopedPolicyRegistration>(
                    timed_keys_.back(), [this, key] {
                        ProbeOptions options = probe_options_;
                        options.shadow_forecast =
                            options.traced && key == "icebreaker";
                        return makeTimedPolicy(
                            harness::makePolicyByName(key), key, options,
                            collector_);
                    }));
        }
    }

    SetupTimes setup() override
    {
        trace::SyntheticConfig tc;
        tc.num_functions = config_.small ? 48 : 420;
        tc.num_intervals = config_.small ? 60 : 720;
        tc.min_memory_mb = 256;
        tc.seed += config_.seed;

        // Drop the previous setup's inputs first, so peak RSS never holds
        // two of them.
        workload_.reset();
        SetupTimes times;
        const Clock::time_point t0 = Clock::now();
        trace::Trace tr = trace::SyntheticTraceGenerator(tc).generate();
        const Clock::time_point t1 = Clock::now();
        const workload::BenchmarkSuite suite =
            workload::BenchmarkSuite::standard();
        const workload::ProfileMatcher matcher(suite);
        std::vector<workload::FunctionProfile> profiles =
            matcher.profilesFor(tr);
        const Clock::time_point t2 = Clock::now();
        workload_.emplace(harness::Workload{std::move(tr), std::move(profiles)});
        times.generate_s = secondsBetween(t0, t1);
        times.match_s = secondsBetween(t1, t2);
        times.total_s = secondsBetween(t0, t2);
        return times;
    }

    Pass pass(bool traced) override
    {
        probe_options_.traced = traced;
        Pass pass;
        pass.runs = runGrid(timed_keys_, pass);
        pass.probes = collector_.take();
        return pass;
    }

    std::vector<SchemeRun> plainRuns() override
    {
        Pass timing;
        return runGrid(keys_, timing);
    }

    std::string decider() const override { return "icebreaker"; }
    std::string improver() const override { return "icebreaker"; }

    std::uint64_t check(const Pass &pass, const Pass &first) override
    {
        const sim::SimulationMetrics *ib = nullptr;
        double best_online_ka = 1e300;
        double best_online_svc = 1e300;
        for (const SchemeRun &run : pass.runs) {
            if (run.scheme == "icebreaker") {
                ib = &run.metrics;
            } else if (run.scheme != "oracle") {
                best_online_ka = std::min(best_online_ka,
                                          run.metrics.totalKeepAliveCost());
                best_online_svc =
                    std::min(best_online_svc, run.metrics.meanServiceMs());
            }
        }
        std::uint64_t failed = 0;
        for (const SchemeRun &run : pass.runs) {
            bool ok = run.metrics.invocations ==
                    workload_->trace.totalInvocations() &&
                sameAsFirst(run, first);
            // The paper's claims need the full geometry: the small one
            // is an hour, too short for the FIP's two-hour window.
            const bool claims = !config_.small;
            if (claims && run.scheme == "icebreaker") {
                // Fig. 6: the best online scheme on both keep-alive cost
                // and mean service time.
                ok = ok && run.metrics.totalKeepAliveCost() < best_online_ka &&
                    run.metrics.meanServiceMs() < best_online_svc;
            }
            if (claims && run.scheme == "oracle" && ib != nullptr) {
                // The offline Oracle bounds IceBreaker's service time.
                ok = ok &&
                    run.metrics.meanServiceMs() <= ib->meanServiceMs();
            }
            if (!ok) {
                std::cerr << "perfbench: fig6 check failed for "
                          << run.scheme << "\n";
                ++failed;
            }
        }
        if (&pass == &first) {
            for (const SchemeRun &run : pass.runs) {
                std::fprintf(stderr,
                             "fig6 %-10s keep-alive $%.3f  svc %.0f ms  "
                             "warm %.1f%%\n",
                             run.scheme.c_str(),
                             run.metrics.totalKeepAliveCost(),
                             run.metrics.meanServiceMs(),
                             100.0 * run.metrics.warmStartFraction());
            }
        }
        return failed;
    }

    SourceLayer sourceLayer(const Pass &, const SetupTimes &) override
    {
        return timeMaterializedSource(
            workload_->trace,
            sim::SimulatorOptions::forRun(baseSeed(), 0).seed);
    }

  private:
    std::uint64_t baseSeed() const { return kSimSeed + config_.seed; }

    /** Run @p keys as one grid; wall and CPU time land in @p timing. */
    std::vector<SchemeRun> runGrid(const std::vector<std::string> &keys,
                                   Pass &timing)
    {
        const std::vector<harness::SweepPoint> points = {
            {"", sim::defaultHeterogeneousCluster()}};
        const std::vector<harness::RunSpec> grid =
            harness::buildGrid(keys, *workload_, points, baseSeed(), 1);
        const harness::ExperimentRunner runner(kThreads);
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        const std::vector<harness::RunResult> results = runner.run(grid);
        timing.wall_s = secondsBetween(t0, Clock::now());
        timing.cpu_s = cpuSeconds() - cpu0;
        std::vector<SchemeRun> runs;
        for (std::size_t i = 0; i < results.size(); ++i)
            runs.push_back(SchemeRun{keys_[i], results[i].metrics});
        return runs;
    }

    std::optional<harness::Workload> workload_;
    std::vector<std::string> keys_;
    std::vector<std::string> timed_keys_;
    ProbeOptions probe_options_; //!< read by the factories during a pass
    std::vector<std::unique_ptr<harness::ScopedPolicyRegistration>>
        registrations_;
};

// ------------------------------------------------------ azure-stream

/**
 * An Azure-scale day streamed through the spill/merge ingest: 27.5M
 * events per run and no forecasting, so it isolates the trace,
 * workload, source and sim layers.
 */
class AzureStreamBench final : public Bench
{
  public:
    explicit AzureStreamBench(const RunConfig &config)
        : Bench(config), cluster_(scaledCluster(config.small ? 5 : 250))
    {
    }

    std::size_t setupRepeats() const override { return 3; }

    SetupTimes setup() override
    {
        source_.reset();
        profiles_.clear();
        trace::SyntheticConfig tc = trace::azureScaleConfig(
            config_.small ? 2000 : 100'000, config_.small ? 120 : 1440);
        tc.seed += config_.seed;
        sim::StreamingSourceOptions options;
        options.seed = simSeed();
        if (config_.small) {
            // Keep the external spill/merge path in the small geometry.
            options.chunk_records = 4096;
            options.read_records = 512;
        }

        SetupTimes times;
        const Clock::time_point t0 = Clock::now();
        trace::SyntheticRowStream rows(tc);
        TimedRowSource timed_rows(rows);
        source_ = std::make_unique<sim::StreamingWorkloadSource>(timed_rows,
                                                                 options);
        const Clock::time_point t1 = Clock::now();
        const workload::BenchmarkSuite suite = workload::BenchmarkSuite::sebs();
        const workload::ProfileMatcher matcher(suite);
        profiles_ = sim::matchStreamedProfiles(*source_, matcher);
        const Clock::time_point t2 = Clock::now();
        times.generate_s = timed_rows.busySeconds();
        times.ingest_s = secondsBetween(t0, t1) - times.generate_s;
        times.match_s = secondsBetween(t1, t2);
        times.total_s = secondsBetween(t0, t2);
        times.spill_runs = source_->spillRuns();
        times.spilled_mb =
            static_cast<double>(source_->spilledBytes()) / (1024.0 * 1024.0);
        return times;
    }

    Pass pass(bool traced) override
    {
        Pass pass;
        ProbeOptions options;
        options.traced = traced;
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        for (const char *key : kSchemes) {
            std::unique_ptr<sim::Policy> policy = makeTimedPolicy(
                harness::makePolicyByName(key), key, options, collector_);
            TimedTraceSource windows(*source_);
            windows.link(static_cast<TimedPolicy<sim::Policy> *>(policy.get()));
            sim::SimulatorOptions sim_options;
            sim_options.seed = simSeed();
            pass.runs.push_back(SchemeRun{
                key, sim::runSimulation(windows, profiles_, cluster_, *policy,
                                        sim_options)});
        }
        pass.wall_s = secondsBetween(t0, Clock::now());
        pass.cpu_s = cpuSeconds() - cpu0;
        pass.probes = collector_.take();
        return pass;
    }

    std::vector<SchemeRun> plainRuns() override
    {
        std::vector<SchemeRun> runs;
        for (const char *key : kSchemes) {
            const std::unique_ptr<sim::Policy> policy =
                harness::makePolicyByName(key);
            sim::SimulatorOptions sim_options;
            sim_options.seed = simSeed();
            runs.push_back(SchemeRun{
                key, sim::runSimulation(*source_, profiles_, cluster_,
                                        *policy, sim_options)});
        }
        return runs;
    }

    std::string decider() const override { return ""; }
    std::string improver() const override { return "faascache"; }

    std::uint64_t check(const Pass &pass, const Pass &first) override
    {
        std::uint64_t failed = 0;
        for (const SchemeRun &run : pass.runs) {
            const std::string digest = digestHex(hashMetrics(run.metrics));
            bool ok = run.metrics.invocations == source_->totalArrivals();
            const auto expected = config_.expect_digests.find(run.scheme);
            if (expected != config_.expect_digests.end())
                ok = ok && expected->second == digest;
            else
                ok = ok && sameAsFirst(run, first);
            if (&pass == &first) {
                std::fprintf(stderr,
                             "azure-stream %-10s digest %s  keep-alive "
                             "$%.3f  svc %.0f ms  warm %.1f%%\n",
                             run.scheme.c_str(), digest.c_str(),
                             run.metrics.totalKeepAliveCost(),
                             run.metrics.meanServiceMs(),
                             100.0 * run.metrics.warmStartFraction());
            }
            if (!ok) {
                std::cerr << "perfbench: azure-stream check failed for "
                          << run.scheme << " (digest " << digest << ")\n";
                ++failed;
            }
        }
        return failed;
    }

    SourceLayer sourceLayer(const Pass &traced,
                            const SetupTimes &setup) override
    {
        SourceLayer layer;
        layer.ingest_s = setup.ingest_s;
        for (const RunProbe &probe : traced.probes)
            layer.window_s += probe.window_s;
        if (!traced.probes.empty())
            layer.window_s /= static_cast<double>(traced.probes.size());
        return layer;
    }

  private:
    static constexpr const char *kSchemes[] = {"openwhisk", "faascache"};

    std::uint64_t simSeed() const { return kSimSeed + config_.seed; }

    sim::ClusterConfig cluster_;
    std::unique_ptr<sim::StreamingWorkloadSource> source_;
    std::vector<workload::FunctionProfile> profiles_;
};

// ------------------------------------------------------- serve-azure

/**
 * IceBreaker behind the serving boundary: a DecisionEngine replayed
 * closed-loop by the ReplayDriver on sparse Azure-shaped histories,
 * forecasting with the pool's own worker threads. The replay is 500
 * functions over 6 hours (240 intervals past the FIP's 2-hour window),
 * short enough that a run times several replays and reports their
 * median.
 */
class ServeAzureBench final : public Bench
{
  public:
    explicit ServeAzureBench(const RunConfig &config)
        : Bench(config), cluster_(scaledCluster(config.small ? 1 : 3))
    {
    }

    SetupTimes setup() override
    {
        trace::SyntheticConfig tc = trace::azureScaleConfig(
            config_.small ? 200 : 500, config_.small ? 120 : 360);
        tc.seed += config_.seed;

        // Drop the previous setup's inputs first, so peak RSS never holds
        // two of them.
        trace_.reset();
        profiles_.clear();
        baseline_.reset();
        SetupTimes times;
        const Clock::time_point t0 = Clock::now();
        trace::Trace tr = trace::SyntheticTraceGenerator(tc).generate();
        const Clock::time_point t1 = Clock::now();
        const workload::BenchmarkSuite suite = workload::BenchmarkSuite::sebs();
        const workload::ProfileMatcher matcher(suite);
        std::vector<workload::FunctionProfile> profiles =
            matcher.profilesFor(tr);
        const Clock::time_point t2 = Clock::now();
        trace_.emplace(std::move(tr));
        profiles_ = std::move(profiles);
        times.generate_s = secondsBetween(t0, t1);
        times.match_s = secondsBetween(t1, t2);
        times.total_s = secondsBetween(t0, t2);
        return times;
    }

    Pass pass(bool traced) override
    {
        Pass pass;
        if (!baseline_) {
            // The OpenWhisk baseline is deterministic: it runs once per
            // setup, in the first pass, outside the timed phase.
            baseline_ = runBaseline();
            pass.runs.push_back(*baseline_);
        }
        const double cpu0 = cpuSeconds();
        const Clock::time_point t0 = Clock::now();
        {
            ProbeOptions options;
            options.traced = traced;
            options.shadow_forecast = traced;
            options.fip_threads = kServeThreads;
            serve::DecisionEngine engine(makeTimedPolicy(
                makeIceBreaker(), "icebreaker", options, collector_));
            serve::ReplayOptions replay;
            replay.acceleration = 0.0; // closed loop
            replay.sim = simOptions();
            Clock::time_point last = Clock::now();
            replay.on_interval = [&](const serve::ReplayProgress &) {
                const Clock::time_point now = Clock::now();
                pass.boundary_ms.push_back(1000.0 * secondsBetween(last, now));
                last = now;
            };
            serve::ReplayDriver driver(*trace_, profiles_, cluster_, engine,
                                       replay);
            pass.runs.push_back(SchemeRun{"icebreaker", driver.run()});
            pass.decisions = engine.decisionCount();
            // The first callback measures replay start-up, not a boundary.
            if (!pass.boundary_ms.empty())
                pass.boundary_ms.erase(pass.boundary_ms.begin());
        }
        pass.wall_s = secondsBetween(t0, Clock::now());
        pass.cpu_s = cpuSeconds() - cpu0;
        pass.probes = collector_.take();
        return pass;
    }

    std::vector<SchemeRun> plainRuns() override
    {
        std::vector<SchemeRun> runs = {runBaseline()};
        serve::DecisionEngine engine(makeIceBreaker());
        serve::ReplayOptions replay;
        replay.sim = simOptions();
        serve::ReplayDriver driver(*trace_, profiles_, cluster_, engine,
                                   replay);
        runs.push_back(SchemeRun{"icebreaker", driver.run()});
        return runs;
    }

    std::string decider() const override { return "icebreaker"; }
    std::string improver() const override { return "icebreaker"; }

    std::uint64_t check(const Pass &pass, const Pass &first) override
    {
        std::uint64_t failed = 0;
        for (const SchemeRun &run : pass.runs) {
            bool ok = run.metrics.invocations == trace_->totalInvocations() &&
                sameAsFirst(run, first);
            if (run.scheme == "icebreaker")
                ok = ok && pass.decisions > 0;
            if (&pass == &first) {
                std::fprintf(stderr,
                             "serve-azure %-10s keep-alive $%.3f  svc %.0f "
                             "ms  warm %.1f%%\n",
                             run.scheme.c_str(),
                             run.metrics.totalKeepAliveCost(),
                             run.metrics.meanServiceMs(),
                             100.0 * run.metrics.warmStartFraction());
            }
            if (!ok) {
                std::cerr << "perfbench: serve-azure check failed for "
                          << run.scheme << "\n";
                ++failed;
            }
        }
        return failed;
    }

    SourceLayer sourceLayer(const Pass &, const SetupTimes &) override
    {
        return timeMaterializedSource(*trace_, simOptions().seed);
    }

  private:
    static std::unique_ptr<sim::Policy> makeIceBreaker()
    {
        core::IceBreakerConfig config;
        config.fip_threads = kServeThreads;
        return std::make_unique<core::IceBreakerPolicy>(config);
    }

    sim::SimulatorOptions simOptions() const
    {
        sim::SimulatorOptions options;
        options.seed = kSimSeed + config_.seed;
        return options;
    }

    SchemeRun runBaseline() const
    {
        const std::unique_ptr<sim::Policy> policy =
            harness::makePolicyByName("openwhisk");
        return SchemeRun{"openwhisk",
                         sim::runSimulation(*trace_, profiles_, cluster_,
                                            *policy, simOptions())};
    }

    sim::ClusterConfig cluster_;
    std::optional<trace::Trace> trace_;
    std::vector<workload::FunctionProfile> profiles_;
    std::optional<SchemeRun> baseline_; //!< reset by every setup
};

std::unique_ptr<Bench>
makeBench(const RunConfig &config)
{
    if (config.workload == "fig6")
        return std::make_unique<Fig6Bench>(config);
    if (config.workload == "azure-stream")
        return std::make_unique<AzureStreamBench>(config);
    if (config.workload == "serve-azure")
        return std::make_unique<ServeAzureBench>(config);
    return nullptr;
}

// ------------------------------------------------------------ metrics

bool
matches(const RunProbe &probe, const std::string &scheme)
{
    return scheme.empty() || probe.scheme == scheme;
}

/** Pool one per-boundary series of the matching runs of @p passes. */
std::vector<double>
pooled(const std::vector<const Pass *> &passes, const std::string &scheme,
       std::vector<double> RunProbe::*series)
{
    std::vector<double> samples;
    for (const Pass *pass : passes) {
        for (const RunProbe &probe : pass->probes) {
            if (matches(probe, scheme))
                samples.insert(samples.end(), (probe.*series).begin(),
                               (probe.*series).end());
        }
    }
    return samples;
}

const sim::SimulationMetrics &
runOf(const Pass &pass, const std::string &scheme)
{
    for (const SchemeRun &run : pass.runs) {
        if (run.scheme == scheme)
            return run.metrics;
    }
    static const sim::SimulationMetrics none;
    return none;
}

std::vector<Metric>
endToEndMetrics(const Bench &bench, const std::vector<SetupTimes> &setups,
                const std::vector<Pass> &passes)
{
    // Every figure is a median over passes, so a host stall during one
    // pass moves none of them.
    std::vector<double> walls, cpus, setup_s, p50s, p90s;
    std::size_t samples = 0;
    for (const Pass &pass : passes) {
        walls.push_back(pass.wall_s);
        cpus.push_back(pass.cpu_s);
        const std::vector<double> steps =
            pooled({&pass}, bench.decider(), &RunProbe::interval_ms);
        p50s.push_back(quantile(steps, 0.50));
        p90s.push_back(quantile(steps, 0.90));
        samples += steps.size();
    }
    for (const SetupTimes &setup : setups)
        setup_s.push_back(setup.total_s);
    const sim::SimulationMetrics &base = runOf(passes.front(), "openwhisk");
    const sim::SimulationMetrics &improved =
        runOf(passes.front(), bench.improver());
    std::cerr << "perfbench: " << passes.size() << " passes, "
              << samples << " interval samples\n";
    return {
        {"wall_s", median(walls), "s"},
        {"cpu_s", median(cpus), "s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"interval_p50_ms", median(p50s), "ms"},
        {"interval_p90_ms", median(p90s), "ms"},
        {"ka_cost_ratio",
         ratio(improved.totalKeepAliveCost(), base.totalKeepAliveCost()),
         "ratio"},
        {"svc_time_ratio",
         ratio(improved.meanServiceMs(), base.meanServiceMs()), "ratio"},
    };
}

std::vector<Metric>
perLayerMetrics(Bench &bench, const std::vector<SetupTimes> &setups,
                const Pass &plain, const Pass &traced)
{
    const auto medianOf = [&](double SetupTimes::*field) {
        std::vector<double> values;
        for (const SetupTimes &setup : setups)
            values.push_back(setup.*field);
        return median(values);
    };
    SetupTimes med;
    med.generate_s = medianOf(&SetupTimes::generate_s);
    med.match_s = medianOf(&SetupTimes::match_s);
    med.ingest_s = medianOf(&SetupTimes::ingest_s);
    const SourceLayer source = bench.sourceLayer(traced, med);

    // sim: counters from the traced pass; self time is each run's wall
    // minus everything the probes attribute to other layers.
    std::uint64_t events = 0, stale = 0, invocations = 0, cold = 0;
    std::uint64_t peak_live = 0, peak_pending = 0;
    for (const SchemeRun &run : traced.runs) {
        const sim::EventLoopStats &loop = run.metrics.event_loop;
        events += loop.totalPopped();
        stale += loop.stale_expiry_events;
        invocations += run.metrics.invocations;
        cold += run.metrics.cold_starts;
        peak_live = std::max(peak_live, loop.peak_live_containers);
        peak_pending = std::max(peak_pending, loop.peak_pending_events);
    }
    // Window time is known per run only on azure-stream, whose streamed
    // source is wrapped in a TimedTraceSource; on fig6 and serve-azure
    // the materialized window fetches stay in the self time
    // (source.window_s gives their cost per horizon).
    double sim_self_s = 0.0;
    std::map<std::string, double> hook_s;
    for (const RunProbe &p : traced.probes) {
        const double hooks = p.observe_s + p.decide_s + p.event_hook_s;
        hook_s[p.scheme] += hooks;
        sim_self_s += p.wall_s - hooks - p.window_s - p.shadow_observe_s -
            p.forecast_s - 1e-9 * (p.fft_ns + p.trend_ns + p.harmonic_fit_ns);
    }

    // IceBreaker's layers: predictors (shadow pool), math, core.
    RunProbe ib;
    for (const RunProbe &p : traced.probes) {
        if (p.scheme != "icebreaker")
            continue;
        ib.observe_s += p.observe_s;
        ib.decide_s += p.decide_s;
        ib.forecast_s += p.forecast_s;
        ib.shadow_observe_s += p.shadow_observe_s;
        ib.forecasts += p.forecasts;
        ib.fft_ns += p.fft_ns;
        ib.trend_ns += p.trend_ns;
        ib.harmonic_fit_ns += p.harmonic_fit_ns;
        ib.harmonics += p.harmonics;
        ib.math_windows += p.math_windows;
        ib.warm_requested += p.warm_requested;
        ib.warm_provisioned += p.warm_provisioned;
        ib.warmups_wasted += p.warmups_wasted;
    }
    const double windows = static_cast<double>(ib.math_windows);

    // harness and latency figures from the untraced pass of this run.
    double critical_s = 0.0, busy_s = 0.0;
    for (const RunProbe &p : plain.probes) {
        critical_s = std::max(critical_s, p.wall_s);
        busy_s += p.wall_s;
    }
    const std::vector<double> boundary = plain.boundary_ms.empty()
        ? pooled({&plain}, bench.decider(), &RunProbe::interval_ms)
        : plain.boundary_ms;
    const std::vector<double> decisions =
        pooled({&plain}, "icebreaker", &RunProbe::decision_ms);
    const auto over_budget = static_cast<double>(std::count_if(
        decisions.begin(), decisions.end(),
        [](double ms) { return ms > kDecisionBudgetMs; }));

    const auto count = [](auto value) { return static_cast<double>(value); };
    return {
        {"trace.generate_s", med.generate_s, "s"},
        {"workload.match_s", med.match_s, "s"},
        {"source.ingest_s", source.ingest_s, "s"},
        {"source.spill_runs", count(setups.back().spill_runs), "count"},
        {"source.spilled_mb", setups.back().spilled_mb, "MB"},
        {"source.window_s", source.window_s, "s"},
        {"sim.events", count(events), "count"},
        {"sim.ns_per_event", ratio(1e9 * sim_self_s, count(events)), "ns"},
        {"sim.stale_expiry_frac", ratio(count(stale), count(events)),
         "ratio"},
        {"sim.peak_live_containers", count(peak_live), "count"},
        {"sim.peak_pending_events", count(peak_pending), "count"},
        {"sim.invocations", count(invocations), "count"},
        {"sim.cold_starts", count(cold), "count"},
        {"policies.openwhisk.hook_s", hook_s["openwhisk"], "s"},
        {"policies.wild.hook_s", hook_s["wild"], "s"},
        {"policies.faascache.hook_s", hook_s["faascache"], "s"},
        {"predictors.forecast_s", ib.forecast_s, "s"},
        {"predictors.us_per_forecast",
         ratio(1e6 * ib.forecast_s, count(ib.forecasts)), "us"},
        {"predictors.observe_s", ib.shadow_observe_s, "s"},
        {"math.fft_ns", ratio(ib.fft_ns, windows), "ns"},
        {"math.trend_ns", ratio(ib.trend_ns, windows), "ns"},
        {"math.harmonic_fit_ns", ratio(ib.harmonic_fit_ns, windows), "ns"},
        {"math.harmonics_per_fit", ratio(count(ib.harmonics), windows),
         "count"},
        {"core.decision_p50_ms", quantile(decisions, 0.50), "ms"},
        {"core.decision_p98_ms", quantile(decisions, 0.98), "ms"},
        {"core.observe_s", ib.observe_s, "s"},
        {"core.decide_s", ib.decide_s, "s"},
        {"core.self_s", std::max(0.0, ib.decide_s - ib.forecast_s), "s"},
        {"core.provisioned_frac",
         ratio(count(ib.warm_provisioned), count(ib.warm_requested)),
         "ratio"},
        {"core.wasted_warmup_frac",
         ratio(count(ib.warmups_wasted), count(ib.warm_provisioned)),
         "ratio"},
        {"harness.critical_path_s", critical_s, "s"},
        {"harness.parallel_speedup", ratio(busy_s, plain.wall_s), "ratio"},
        {"serve.interval_p98_ms", quantile(boundary, 0.98), "ms"},
        {"serve.decisions", count(plain.decisions), "count"},
        {"serve.over_budget_intervals", over_budget, "count"},
        {"bench.trace_overhead", ratio(traced.wall_s, plain.wall_s),
         "ratio"},
    };
}

} // namespace

// ---------------------------------------------------------------- API

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig6", "azure-stream",
                                                    "serve-azure"};
    return names;
}

Outcome
runWorkload(const RunConfig &config)
{
    const std::unique_ptr<Bench> bench = makeBench(config);
    Outcome outcome;
    if (bench == nullptr)
        return outcome;

    std::vector<SetupTimes> setups;
    for (std::size_t i = 0; i < bench->setupRepeats(); ++i)
        setups.push_back(bench->setup());

    std::vector<Pass> passes;
    const Clock::time_point start = Clock::now();
    do {
        passes.push_back(bench->pass(false));
    } while (!config.traced &&
             secondsBetween(start, Clock::now()) < config.seconds);
    if (config.traced)
        passes.push_back(bench->pass(true));

    for (const Pass &pass : passes) {
        outcome.attempted += pass.runs.size();
        outcome.failed += bench->check(pass, passes.front());
    }
    if (config.traced) {
        outcome.metrics =
            perLayerMetrics(*bench, setups, passes.front(), passes.back());
        for (RunProbe &probe : passes.back().probes) {
            std::move(probe.spans.begin(), probe.spans.end(),
                      std::back_inserter(outcome.spans));
        }
    } else {
        outcome.metrics = endToEndMetrics(*bench, setups, passes);
    }
    return outcome;
}

int
selfTest()
{
    int mismatches = 0;
    for (const std::string &name : workloadNames()) {
        RunConfig config;
        config.workload = name;
        config.small = true;
        const std::unique_ptr<Bench> bench = makeBench(config);
        bench->setup();
        const std::vector<SchemeRun> plain = bench->plainRuns();
        for (const bool traced : {false, true}) {
            // A fresh setup per pass: serve-azure runs its baseline in the
            // first pass after a setup only.
            bench->setup();
            const Pass pass = bench->pass(traced);
            for (const SchemeRun &run : pass.runs) {
                const auto ref = std::find_if(
                    plain.begin(), plain.end(), [&](const SchemeRun &p) {
                        return p.scheme == run.scheme;
                    });
                const bool same = ref != plain.end() &&
                    hashMetrics(ref->metrics) == hashMetrics(run.metrics);
                std::fprintf(stderr, "self-test %-12s %-10s %-8s %s\n",
                             name.c_str(), run.scheme.c_str(),
                             traced ? "traced" : "untraced",
                             same ? "identical" : "MISMATCH");
                mismatches += same ? 0 : 1;
            }
            if (pass.runs.size() != plain.size())
                ++mismatches;
        }
    }
    return mismatches;
}

// ----------------------------------------------------------- digests

namespace
{

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
fnv1aDouble(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a(hash, bits);
}

} // namespace

std::uint64_t
hashMetrics(const sim::SimulationMetrics &m)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (std::uint64_t count :
         {m.invocations, m.cold_starts, m.warm_starts, m.cold_no_container,
          m.cold_all_busy, m.cold_setup_attach})
        hash = fnv1a(hash, count);
    for (double sum : {m.sum_service_ms, m.sum_wait_ms, m.sum_cold_ms,
                       m.sum_exec_ms, m.sum_overhead_ms})
        hash = fnv1aDouble(hash, sum);
    for (const auto *samples :
         {&m.service_times_ms, &m.service_times_high_ms,
          &m.service_times_low_ms}) {
        hash = fnv1a(hash, samples->size());
        for (float sample : *samples) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &sample, sizeof(bits));
            hash = fnv1a(hash, bits);
        }
    }
    for (const sim::FunctionMetrics &fm : m.per_function) {
        hash = fnv1a(hash, fm.invocations);
        hash = fnv1a(hash, fm.cold_starts);
        hash = fnv1a(hash, fm.warm_starts);
        for (double sum : {fm.sum_service_ms, fm.sum_wait_ms, fm.sum_cold_ms,
                           fm.sum_exec_ms, fm.keep_alive_cost})
            hash = fnv1aDouble(hash, sum);
    }
    for (const sim::TierKeepAlive &tier : m.keep_alive) {
        hash = fnv1aDouble(hash, tier.successful_cost);
        hash = fnv1aDouble(hash, tier.wasteful_cost);
        hash = fnv1aDouble(hash, tier.wasted_mb_ms);
    }
    return hash;
}

std::string
digestHex(std::uint64_t digest)
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return buffer;
}

} // namespace perfbench
