/**
 * @file
 * The parallel experiment engine.
 *
 * An ExperimentRunner executes a declarative grid of RunSpecs —
 * (scheme × seed replicate × sweep point) — on the process-wide
 * TaskExecutor (common/executor.hh): with T workers, run i goes to
 * worker i mod T, so repeated grids replay on the same threads.
 * Results come back in grid order regardless of completion order.
 *
 * Determinism contract: a run's output depends only on its RunSpec.
 * Each run owns its entire mutable state (Simulator, ClusterState,
 * MetricsCollector, a fresh registry-built policy) and seeds its RNG
 * stream purely from (base_seed, run_index) via
 * SimulatorOptions::forRun, so `threads = 1` and `threads = N`
 * produce bit-identical result vectors. Shared inputs (the Workload,
 * cluster configs) are read-only during execution.
 */

#ifndef ICEB_HARNESS_RUNNER_HH
#define ICEB_HARNESS_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/metrics_summary.hh"

namespace iceb::harness
{

struct ObservationOptions; // harness/observe.hh

/** Default base seed for repeated-seed experiment grids. */
inline constexpr std::uint64_t kDefaultBaseSeed = 0x51AB'1CEBull;

/** One cell-run of an experiment grid; fully describes one simulation. */
struct RunSpec
{
    std::string scheme;                //!< registry name
    const Workload *workload = nullptr;//!< shared, read-only input
    sim::ClusterConfig cluster;
    std::uint64_t base_seed = kDefaultBaseSeed;
    std::uint32_t run_index = 0;       //!< seed-replicate index
    std::string label;                 //!< sweep-point tag for grouping
};

/** One run's outcome, paired with the spec that produced it. */
struct RunResult
{
    RunSpec spec;
    sim::SimulationMetrics metrics;
};

/**
 * Executes RunSpec grids on up to threads() workers of the shared
 * TaskExecutor.
 */
class ExperimentRunner
{
  public:
    /** @param threads Worker count; 0 means hardware concurrency. */
    explicit ExperimentRunner(std::size_t threads = 0);
    ~ExperimentRunner();

    ExperimentRunner(ExperimentRunner &&) noexcept;
    ExperimentRunner &operator=(ExperimentRunner &&) noexcept;

    /** Resolved worker count. */
    std::size_t threads() const { return threads_; }

    /**
     * Collect and export observability output (traces / probes /
     * manifests) for every subsequent run() call. Each run gets its
     * own RunRecorder and files are written in grid order after the
     * pool joins, so output is byte-identical across thread counts.
     */
    void setObservation(const ObservationOptions &options);

    /**
     * Execute every spec (concurrently up to threads()) and return
     * results in grid order. Specs are validated (known scheme,
     * non-null workload) before any thread starts. Runs that share a
     * workload and a derived seed share one arrival source, built once
     * up front; freed memory is returned to the OS (glibc malloc_trim)
     * before the call returns.
     *
     * Trade-off: a grid of R seed replicates keeps R sources resident
     * for its whole length, built one after another on the calling
     * thread, where a source per run would keep one per busy worker.
     * Every scheme replays all R seeds, so sources could not be freed
     * earlier anyway, and sharing still lowers the peak: bench_fig6
     * --threads 4 --repeats 4 / 8 peaks at 72 / 115 MB instead of
     * 92 / 160 MB (4-vCPU host).
     */
    std::vector<RunResult> run(const std::vector<RunSpec> &grid) const;

  private:
    std::size_t threads_ = 1;
    std::unique_ptr<ObservationOptions> observation_;
};

/** One sweep point: a labelled cluster configuration. */
struct SweepPoint
{
    std::string label;
    sim::ClusterConfig cluster;
};

/**
 * Build the standard cartesian grid in deterministic order:
 * sweep-point-major, then scheme, then seed replicate. Replicate r of
 * every cell uses run_index r, so adding repeats refines — never
 * reshuffles — the seeds of existing runs.
 */
std::vector<RunSpec>
buildGrid(const std::vector<std::string> &schemes,
          const Workload &workload,
          const std::vector<SweepPoint> &points,
          std::uint64_t base_seed = kDefaultBaseSeed,
          std::size_t repeats = 1);

/** One (sweep point, scheme) cell folded over its seed replicates. */
struct CellSummary
{
    std::string label;
    std::string scheme;
    sim::MetricsSummary summary;
};

/**
 * Group grid-ordered results back into (label, scheme) cells,
 * aggregating seed replicates via summarizeRuns. Consecutive results
 * with equal (label, scheme) form one cell, matching buildGrid's
 * layout.
 */
std::vector<CellSummary>
summarizeGrid(const std::vector<RunResult> &results);

/** Options for the scheme-comparison convenience entry point. */
struct RunnerOptions
{
    std::size_t threads = 0; //!< 0 = hardware concurrency
    std::size_t repeats = 1; //!< seed replicates per cell
    std::uint64_t base_seed = kDefaultBaseSeed;

    /** Observability destinations (borrowed; null = off). */
    const ObservationOptions *observation = nullptr;
};

/** One scheme's replicate-aggregated result. */
struct SchemeSummary
{
    Scheme scheme = Scheme::OpenWhisk;
    sim::MetricsSummary summary;
};

/**
 * The five-scheme comparison (the Fig. 6 setup) through the parallel
 * runner: every scheme on the same workload/cluster, repeats-many
 * seed replicates each, ordered as allSchemes().
 */
std::vector<SchemeSummary>
runAllSchemesParallel(const Workload &workload,
                      const sim::ClusterConfig &cluster,
                      const RunnerOptions &options = {});

} // namespace iceb::harness

#endif // ICEB_HARNESS_RUNNER_HH
