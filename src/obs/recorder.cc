#include "obs/recorder.hh"

namespace iceb::obs
{

RunRecorder::RunRecorder(const ObsConfig &config)
    : trace_(config.trace), probes_(config.probes),
      histograms_(config.histograms),
      trace_sink_(config.trace ? config.trace_capacity : 2)
{
    histogram_set_.wall_timing =
        config.histograms && config.wall_timing;
}

} // namespace iceb::obs
