#include "serve/drivers.hh"

#include <chrono>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "obs/recorder.hh"
#include "serve/stats_exporter.hh"

namespace iceb::serve
{

ReplayDriver::ReplayDriver(
    const trace::Trace &tr,
    const std::vector<workload::FunctionProfile> &profiles,
    const sim::ClusterConfig &cluster, DecisionEngine &engine,
    ReplayOptions options)
    : trace_(tr), profiles_(profiles), cluster_(cluster),
      engine_(engine), options_(std::move(options))
{
}

sim::SimulationMetrics
ReplayDriver::run()
{
    // Stand up this run's observability sinks when the caller asked
    // for live export but supplied no recorder of their own.
    obs::ObsConfig obs_config;
    obs_config.trace = options_.chrome_trace != nullptr;
    obs_config.probes = options_.probe_csv != nullptr ||
        options_.chrome_trace != nullptr;
    obs_config.histograms = options_.stats != nullptr;
    std::optional<obs::RunRecorder> own_recorder;
    sim::SimulatorOptions sim_options = options_.sim;
    if (sim_options.recorder == nullptr && obs_config.any()) {
        own_recorder.emplace(obs_config);
        sim_options.recorder = &*own_recorder;
    }

    using Clock = std::chrono::steady_clock;
    const Clock::time_point wall_start = Clock::now();
    const bool paced = options_.acceleration > 0.0;

    const auto sleepUntilSimTime = [&](TimeMs sim_time) {
        const auto offset = std::chrono::duration<double, std::milli>(
            static_cast<double>(sim_time) / options_.acceleration);
        std::this_thread::sleep_until(
            wall_start +
            std::chrono::duration_cast<Clock::duration>(offset));
    };

    // One snapshot per publish: scalar counters off the live engine
    // plus the run's histogram set (null when stats are off).
    const auto publishStats = [&](std::size_t started, TimeMs sim_now,
                                  const sim::LiveCounters &counters) {
        StatsSnapshot snap;
        snap.run_label = options_.run_label;
        snap.intervals_started = started;
        snap.sim_time_ms = sim_now;
        snap.decisions = engine_.decisionCount();
        snap.rejected_arrivals = engine_.rejectedArrivals();
        snap.counters = counters;
        snap.histograms = sim_options.recorder != nullptr
            ? sim_options.recorder->histograms()
            : nullptr;
        options_.stats->update(snap);
    };

    sim::Simulator simulator(trace_, profiles_, cluster_, engine_,
                             sim_options);
    simulator.start();
    std::optional<obs::ProbeCsvStreamer> streamer;
    if (options_.probe_csv != nullptr && sim_options.recorder != nullptr &&
        sim_options.recorder->probeTable() != nullptr) {
        streamer.emplace(*options_.probe_csv, options_.run_label,
                         *sim_options.recorder->probeTable());
    }

    std::size_t intervals_seen = 0;
    bool more = true;
    while (more) {
        if (paced) {
            if (const std::optional<TimeMs> next =
                    simulator.nextEventTime())
                sleepUntilSimTime(*next);
        }
        more = simulator.step();

        // An interval boundary was processed: stream its probes and
        // report progress before the next unit of work.
        const std::size_t started = simulator.intervalsStarted();
        const bool advanced = intervals_seen < started;
        while (intervals_seen < started) {
            if (streamer)
                streamer->flush();
            if (options_.on_interval) {
                ReplayProgress progress;
                progress.interval =
                    static_cast<IntervalIndex>(intervals_seen);
                progress.sim_time_ms = simulator.now();
                progress.decisions = engine_.decisionCount();
                options_.on_interval(progress);
            }
            ++intervals_seen;
        }
        if (advanced && options_.stats != nullptr) {
            publishStats(started, simulator.now(),
                         simulator.liveCounters());
        }
    }
    const sim::LiveCounters final_counters = options_.stats != nullptr
        ? simulator.liveCounters()
        : sim::LiveCounters{};
    sim::SimulationMetrics metrics = simulator.finish();
    if (options_.stats != nullptr) {
        publishStats(simulator.intervalsStarted(), simulator.now(),
                     final_counters);
    }
    if (streamer)
        streamer->flush();

    if (options_.chrome_trace != nullptr &&
        sim_options.recorder != nullptr) {
        std::vector<obs::TraceRun> runs(1);
        runs[0].name = options_.run_label;
        runs[0].trace = sim_options.recorder->traceSinkIfEnabled();
        runs[0].probes = sim_options.recorder->probeTableIfEnabled();
        obs::writeChromeTrace(*options_.chrome_trace, runs);
    }
    return metrics;
}

} // namespace iceb::serve
