/**
 * @file
 * RunRecorder: the per-run bundle of observability sinks handed to a
 * Simulator. One recorder per run, owned by whoever launches the run
 * (ExperimentRunner for grids, main() for single runs); the simulator
 * only borrows it. Single ownership is the determinism story: worker
 * threads never share a sink, so `--threads N` observes exactly what
 * `--threads 1` observes, and export happens after the grid completes
 * in grid order.
 */

#ifndef ICEB_OBS_RECORDER_HH
#define ICEB_OBS_RECORDER_HH

#include "obs/histogram.hh"
#include "obs/probes.hh"
#include "obs/trace_sink.hh"

namespace iceb::obs
{

/** Which pillars to collect, and how much tracing memory to commit. */
struct ObsConfig
{
    bool trace = false;
    bool probes = false;
    bool histograms = false;
    /** Measure wall time around policy interval hooks (see
     * HistogramSet::wall_timing; non-deterministic, off by default). */
    bool wall_timing = false;
    std::size_t trace_capacity = TraceSink::kDefaultCapacity;

    bool any() const { return trace || probes || histograms; }
};

/** One run's observability state. */
class RunRecorder
{
  public:
    explicit RunRecorder(const ObsConfig &config);

    /** Trace sink for ICEB_TRACE sites, or null when tracing is off. */
    TraceSink *traceSink() { return trace_ ? &trace_sink_ : nullptr; }
    const TraceSink *traceSinkIfEnabled() const
    {
        return trace_ ? &trace_sink_ : nullptr;
    }

    /** Probe table, or null when probes are off. */
    ProbeTable *probeTable() { return probes_ ? &probe_table_ : nullptr; }
    const ProbeTable *probeTableIfEnabled() const
    {
        return probes_ ? &probe_table_ : nullptr;
    }

    /** Latency histograms, or null when the pillar is off. */
    HistogramSet *histograms()
    {
        return histograms_ ? &histogram_set_ : nullptr;
    }
    const HistogramSet *histogramsIfEnabled() const
    {
        return histograms_ ? &histogram_set_ : nullptr;
    }

  private:
    bool trace_;
    bool probes_;
    bool histograms_;
    TraceSink trace_sink_;
    ProbeTable probe_table_;
    HistogramSet histogram_set_;
};

} // namespace iceb::obs

#endif // ICEB_OBS_RECORDER_HH
