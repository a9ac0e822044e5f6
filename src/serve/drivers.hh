/**
 * @file
 * ReplayDriver: streams a recorded trace through a DecisionEngine.
 *
 * A DecisionEngine is a Policy, so a batch run is plain
 * sim::runSimulation on it, and produces SimulationMetrics
 * byte-identical to the bare policy's: the regression anchor proving
 * the serving boundary adds no behaviour.
 *
 * ReplayDriver replays a recorded trace through the engine one event
 * at a time over the Simulator's incremental stepping API, optionally
 * paced against the wall clock (acceleration = simulated ms per wall
 * ms). Because it advances the very same event loop run() executes,
 * an accelerated — or even real-time — replay reproduces the batch
 * metrics exactly, while streaming per-interval probe CSV to a live
 * consumer and emitting a Chrome trace at the end. This is the
 * serving-mode story: the same engine, the same decisions, with wall
 * time instead of simulated time as the master clock.
 */

#ifndef ICEB_SERVE_DRIVERS_HH
#define ICEB_SERVE_DRIVERS_HH

#include <functional>
#include <iosfwd>
#include <string>

#include "serve/decision_engine.hh"
#include "sim/simulator.hh"

namespace iceb::serve
{

class StatsExporter; // stats_exporter.hh

/** Progress snapshot passed to ReplayOptions::on_interval. */
struct ReplayProgress
{
    IntervalIndex interval = 0; //!< interval that just started
    TimeMs sim_time_ms = 0;     //!< simulated clock at the boundary
    std::size_t decisions = 0;  //!< engine decisions issued so far
};

/** Knobs for a replay run. */
struct ReplayOptions
{
    /**
     * Simulated milliseconds replayed per wall-clock millisecond;
     * 1.0 is real time, 60.0 replays a minute per second, <= 0
     * replays as fast as possible (no pacing). Pacing only schedules
     * when work happens — never what — so metrics are independent of
     * this value.
     */
    double acceleration = 0.0;

    /** Run label used in probe CSV rows and the Chrome trace. */
    std::string run_label = "replay";

    /**
     * Streaming probe CSV destination (null = off): each interval's
     * samples are appended as soon as the boundary is processed, so
     * the file can be tailed while the replay runs.
     */
    std::ostream *probe_csv = nullptr;

    /** Chrome trace_event JSON, written once the replay finishes. */
    std::ostream *chrome_trace = nullptr;

    /** Called after every processed interval boundary. */
    std::function<void(const ReplayProgress &)> on_interval;

    /**
     * Live metrics endpoint (borrowed, null = off): receives one
     * StatsSnapshot per processed interval boundary and a final one
     * when the run drains. Attaching it enables the run's latency
     * histograms (they feed the quantile digests it serves).
     */
    StatsExporter *stats = nullptr;

    /** Underlying simulator options (seed, capacity hints). */
    sim::SimulatorOptions sim;
};

/**
 * Streaming driver: replays a trace through the engine with optional
 * wall-clock pacing and live observability export.
 */
class ReplayDriver
{
  public:
    /** All references are borrowed for the driver's lifetime. */
    ReplayDriver(const trace::Trace &tr,
                 const std::vector<workload::FunctionProfile> &profiles,
                 const sim::ClusterConfig &cluster,
                 DecisionEngine &engine, ReplayOptions options = {});

    /**
     * Replay the whole trace. Returns metrics byte-identical to
     * sim::runSimulation on the engine with the same SimulatorOptions.
     */
    sim::SimulationMetrics run();

  private:
    const trace::Trace &trace_;
    const std::vector<workload::FunctionProfile> &profiles_;
    const sim::ClusterConfig &cluster_;
    DecisionEngine &engine_;
    ReplayOptions options_;
};

} // namespace iceb::serve

#endif // ICEB_SERVE_DRIVERS_HH
