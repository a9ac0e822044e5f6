/**
 * @file
 * The benchmark's three workloads and the metrics they report.
 *
 *  - fig6:         the standard 420 x 720 figure workload, all five paper
 *                  schemes in one 4-thread ExperimentRunner grid;
 *  - azure-stream: a 100k x 1440 Azure-shaped trace streamed through the
 *                  spill/merge ingest, OpenWhisk then FaasCache;
 *  - serve-azure:  a 500 x 360 Azure-shaped trace replayed through a
 *                  serve::DecisionEngine around 2-thread IceBreaker, with
 *                  a bare OpenWhisk run as the baseline.
 *
 * A run sets the workload up several times (setup_s is the median),
 * then repeats whole passes -- every timed scheme run of the workload --
 * until the requested seconds are spent. serve-azure's baseline runs
 * once, untimed, in the first pass. Untraced runs report the end-to-end
 * metrics; traced runs make one untraced and one traced pass and report
 * the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "probes.hh"
#include "sim/metrics.hh"

namespace perfbench
{

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one benchmark invocation asks for. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 0; //!< 0 reproduces the repository's defaults
    double seconds = 10.0;
    bool traced = false;
    bool small = false; //!< shrunken geometry (the benchmark's own tests)

    /** Recorded metrics digests (scheme -> "0x..."), azure-stream only. */
    std::map<std::string, std::string> expect_digests;
};

/** What one benchmark invocation measured. */
struct Outcome
{
    std::uint64_t attempted = 0; //!< scheme runs
    std::uint64_t failed = 0;    //!< scheme runs whose check failed
    std::vector<Metric> metrics;
    std::vector<Span> spans; //!< traced runs only
};

/** Names accepted by runWorkload. */
const std::vector<std::string> &workloadNames();

/** Run one workload; diagnostics go to stderr. */
Outcome runWorkload(const RunConfig &config);

/**
 * The timing wrappers leave every scheme's SimulationMetrics
 * byte-identical to an undecorated run, on a shrunken geometry of each
 * workload. Returns the number of mismatches (0 = pass).
 */
int selfTest();

/** FNV-1a digest over every result field of a run. */
std::uint64_t hashMetrics(const sim::SimulationMetrics &metrics);

/** "0x%016x" rendering of a digest. */
std::string digestHex(std::uint64_t digest);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
