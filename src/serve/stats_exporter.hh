/**
 * @file
 * Live metrics export for serving mode: the third pillar of the obs
 * layer made watchable while a replay runs.
 *
 * A StatsExporter receives one StatsSnapshot per processed decision
 * interval from the ReplayDriver and renders it two ways:
 *
 *  - Prometheus text exposition served over a minimal blocking HTTP
 *    listener (`curl localhost:PORT/metrics` while the replay runs).
 *    The listener thread only ever serves the latest pre-rendered
 *    string — rendering happens on the driver thread under the same
 *    mutex — so a slow scraper can never stall the replay for longer
 *    than one write.
 *  - A JSON snapshot file rewritten atomically-enough (truncate +
 *    write + flush) each interval: the socket-free mode CI uses. The
 *    JSON always contains every histogram series (even empty ones) so
 *    schema goldens are stable across workloads.
 *
 * Snapshots are assembled from sim::LiveCounters — scalar counters
 * only, no sample-vector copies — so per-interval export cost is O(1)
 * in the run length. Export never feeds back into the simulation:
 * like every obs sink, the exporter is strictly write-only.
 */

#ifndef ICEB_SERVE_STATS_EXPORTER_HH
#define ICEB_SERVE_STATS_EXPORTER_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "sim/simulator.hh"

namespace iceb::obs
{
struct HistogramSet;
} // namespace iceb::obs

namespace iceb::serve
{

/** One interval's worth of exportable state (all borrowed). */
struct StatsSnapshot
{
    std::string run_label = "replay";
    std::uint64_t intervals_started = 0;
    TimeMs sim_time_ms = 0;
    std::uint64_t decisions = 0;
    /** Arrivals the engine refused (DecisionEngine::rejectedArrivals). */
    std::uint64_t rejected_arrivals = 0;
    sim::LiveCounters counters;
    /** The run's histogram set, or null when the pillar is off. */
    const obs::HistogramSet *histograms = nullptr;
};

/** Where to export. Both modes may be active at once. */
struct StatsExporterOptions
{
    /** JSON snapshot file, rewritten per interval ("" = off). */
    std::string json_path;

    /**
     * HTTP port for the Prometheus endpoint: -1 = off, 0 = bind an
     * ephemeral port (read it back via port()), otherwise the port.
     */
    int http_port = -1;
};

/**
 * Renders snapshots and serves them. Construct before the replay,
 * call update() per interval (and once more after finish()), destroy
 * to stop the listener.
 */
class StatsExporter
{
  public:
    explicit StatsExporter(StatsExporterOptions options);
    ~StatsExporter();

    StatsExporter(const StatsExporter &) = delete;
    StatsExporter &operator=(const StatsExporter &) = delete;

    /** Render @p snap and publish it to both configured outputs. */
    void update(const StatsSnapshot &snap);

    /** Bound HTTP port, or -1 when the listener is off/failed. */
    int port() const { return port_; }

    /** Latest rendered Prometheus text (tests; "" before update). */
    std::string prometheusText() const;

    /** Latest rendered JSON document (tests; "" before update). */
    std::string jsonText() const;

  private:
    void serveLoop();
    void writeJsonFile();

    StatsExporterOptions options_;
    mutable std::mutex mutex_;
    std::string prometheus_;
    std::string json_;

    int listen_fd_ = -1;
    int port_ = -1;
    std::thread server_;
};

/** Render @p snap as Prometheus text exposition (format v0.0.4). */
std::string renderPrometheus(const StatsSnapshot &snap);

/**
 * Render @p snap as a single-line JSON document. Every histogram
 * series appears (count/p50/p95/p99/max, zeros when empty) under
 * "histograms", keyed "series" or "series/tier" — see README's
 * telemetry artifact table for the full schema.
 */
std::string renderStatsJson(const StatsSnapshot &snap);

} // namespace iceb::serve

#endif // ICEB_SERVE_STATS_EXPORTER_HH
