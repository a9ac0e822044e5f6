/**
 * @file
 * Trace-function to benchmark-profile matching.
 *
 * The Azure trace provides only memory allocation and average
 * execution time per function; the paper finds "the nearest match of
 * a corresponding benchmark from our benchmark pool to represent the
 * corresponding function behavior" (Sec. 4). This module implements
 * that matcher and produces the per-function profiles the simulator
 * consumes.
 */

#ifndef ICEB_WORKLOAD_PROFILE_MATCHER_HH
#define ICEB_WORKLOAD_PROFILE_MATCHER_HH

#include <vector>

#include "trace/trace.hh"
#include "workload/benchmark_suite.hh"

namespace iceb::workload
{

/**
 * Matches trace functions to benchmark profiles. A matched profile
 * keeps the benchmark's tier ratios and cold-start behaviour but is
 * scaled to the trace's execution-time and memory hints, which widens
 * workload diversity beyond the pool size.
 */
class ProfileMatcher
{
  public:
    explicit ProfileMatcher(const BenchmarkSuite &suite);

    /**
     * Nearest-profile index for the given resource hints, by L2
     * distance in log(memory), log(exec-time) space (both axes span
     * orders of magnitude).
     */
    std::size_t matchIndex(MemoryMb memory_mb, TimeMs exec_ms) const;

    /**
     * Materialised profile for one trace function. A hint of 0 means
     * unknown and matches as 256 MB or 1000 ms.
     */
    FunctionProfile profileFor(const trace::FunctionSeries &fn) const;

    /**
     * Materialised profile from bare metadata (name + resource
     * hints), for streamed workloads that never build FunctionSeries.
     * Identical output to the series overload for equal inputs.
     */
    FunctionProfile profileFor(const std::string &name,
                               MemoryMb memory_mb, TimeMs exec_ms) const;

    /** Profiles for every function in a trace, indexed by id. */
    std::vector<FunctionProfile> profilesFor(const trace::Trace &tr) const;

  private:
    const BenchmarkSuite &suite_;
};

} // namespace iceb::workload

#endif // ICEB_WORKLOAD_PROFILE_MATCHER_HH
