/**
 * @file
 * Grid-level observability: where trace/probe/manifest output goes,
 * and the export step that turns per-run recorders into files.
 *
 * Ownership/determinism contract: the ExperimentRunner creates one
 * RunRecorder per RunSpec before any worker starts; each worker only
 * touches its own run's recorder; export happens after the pool joins,
 * iterating the grid in spec order. Output files are therefore
 * byte-identical for `--threads 1` and `--threads N`.
 */

#ifndef ICEB_HARNESS_OBSERVE_HH
#define ICEB_HARNESS_OBSERVE_HH

#include <memory>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "obs/manifest.hh"
#include "obs/recorder.hh"

namespace iceb::harness
{

/** Output destinations ("" = that pillar is off). */
struct ObservationOptions
{
    std::string trace_path;    //!< Chrome trace_event JSON
    std::string probe_path;    //!< tidy CSV time series
    std::string hist_path;     //!< tidy CSV latency histograms
    std::string manifest_path; //!< JSON-lines run manifests
    std::size_t trace_capacity = obs::TraceSink::kDefaultCapacity;

    bool enabled() const
    {
        return !trace_path.empty() || !probe_path.empty() ||
            !hist_path.empty() || !manifest_path.empty();
    }

    /** Per-run collection config implied by the destinations. */
    obs::ObsConfig runConfig() const
    {
        obs::ObsConfig config;
        config.trace = !trace_path.empty();
        // The Chrome export renders probe samples as counter tracks,
        // so a trace request implies probe collection too.
        config.probes = !probe_path.empty() || !trace_path.empty();
        // Manifests fold histogram digests in, so either destination
        // wants the pillar collected.
        config.histograms =
            !hist_path.empty() || !manifest_path.empty();
        config.trace_capacity = trace_capacity;
        return config;
    }
};

/** Display name of one run, used as trace process / probe run label. */
std::string runDisplayName(const RunSpec &spec);

/** FNV-1a digest over a cluster composition. */
std::uint64_t digestClusterConfig(const sim::ClusterConfig &config);

/**
 * FNV-1a digest over every metrics field but event_loop, each by its
 * exact bits (float samples by their 32-bit pattern), continuing from
 * @p state.
 */
std::uint64_t digestMetrics(const sim::SimulationMetrics &metrics,
                            std::uint64_t state = obs::Digest::kOffsetBasis);

/**
 * Write the requested trace / probe / manifest files for a completed
 * grid. @p recorders is parallel to @p results (entries may be null
 * when observation was off for that run). fatal()s if a file cannot
 * be opened.
 */
void writeObservations(
    const ObservationOptions &options,
    const std::vector<RunResult> &results,
    const std::vector<std::unique_ptr<obs::RunRecorder>> &recorders);

} // namespace iceb::harness

#endif // ICEB_HARNESS_OBSERVE_HH
