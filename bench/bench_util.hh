/**
 * @file
 * Shared helpers for the per-figure bench binaries: standard workload
 * geometries (kept small enough that the whole bench suite runs in
 * minutes), the common bench CLI (--threads / --seeds / --repeats),
 * and runner-driven scheme-comparison helpers.
 *
 * All comparison output is byte-identical across --threads values:
 * the ExperimentRunner's determinism contract fixes every run's RNG
 * stream from (base seed, replicate index), results return in grid
 * order, and nothing thread-count-dependent is printed.
 */

#ifndef ICEB_BENCH_BENCH_UTIL_HH
#define ICEB_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/runner.hh"

namespace bench
{

/**
 * The standard evaluation workload: Azure-like synthetic trace with
 * matched ServerlessBench-style profiles. 420 functions x 12 hours by
 * default -- enough functions that keep-alive demand oversubscribes
 * the default cluster's memory, the regime the paper's trace replay
 * operates in (a scheme must *choose* what stays warm).
 */
iceb::harness::Workload standardWorkload(std::size_t num_functions = 420,
                                         std::size_t num_intervals = 720);

/** Smaller geometry for the sweep benches (Figs. 12 and 13). */
iceb::harness::Workload sweepWorkload();

/**
 * Common bench CLI options.
 *
 *   --threads N       worker threads (0 = hardware concurrency, default)
 *   --seeds S         base seed for the run's derived RNG streams
 *   --repeats R       seed replicates per cell (mean +- stddev columns)
 *   --smoke           shrunken workload for CI smoke runs
 *   --trace-out F     write a Chrome trace_event JSON of every run
 *   --probe-out F     write interval/forecast probe series as CSV
 *   --hist-out F      write latency histograms as tidy CSV
 *   --manifest-out F  write one JSON manifest line per run
 */
struct BenchOptions
{
    std::size_t threads = 0;
    std::size_t repeats = 1;
    std::uint64_t base_seed = iceb::harness::kDefaultBaseSeed;
    bool smoke = false;
    iceb::harness::ObservationOptions observation;
};

/** The --smoke workload geometry (shared by the figure benches). */
iceb::harness::Workload smokeWorkload();

/** Parse the common flags; prints usage and exits on --help/errors. */
BenchOptions parseBenchOptions(int argc, char **argv);

/** Convert BenchOptions to the harness runner options. */
iceb::harness::RunnerOptions runnerOptions(const BenchOptions &options);

/**
 * Print the Fig. 6-style comparison: keep-alive cost and mean service
 * time of every scheme as absolute values and improvements over the
 * first scheme (the OpenWhisk baseline). With more than one replicate
 * the absolute columns read "mean +-stddev".
 */
void printSchemeComparison(
    const std::string &title,
    const std::vector<iceb::harness::SchemeSummary> &results);

/** One column of a grid comparison: registry key + display name. */
struct ComparisonScheme
{
    std::string key;     //!< PolicyRegistry name
    std::string display; //!< table row label
};

/** The five paper schemes as ComparisonSchemes (baseline first). */
std::vector<ComparisonScheme> paperSchemes();

/**
 * The shared sweep/ablation skeleton (Figs. 12, 13, ablations): run
 * schemes[0..n) on every sweep point through one runner invocation
 * and print, per point, each non-baseline scheme's keep-alive and
 * service-time improvement over schemes[0], paired per replicate and
 * reported mean +- stddev.
 *
 * @param label_header Header of the sweep-point column; empty hides
 *                     the column (single-point grids).
 * @param show_warm    Append the warm-start-fraction column.
 */
void runGridComparison(const std::string &title,
                       const std::string &label_header,
                       const iceb::harness::Workload &workload,
                       const std::vector<iceb::harness::SweepPoint> &points,
                       const std::vector<ComparisonScheme> &schemes,
                       const BenchOptions &options, bool show_warm = true);

} // namespace bench

#endif // ICEB_BENCH_BENCH_UTIL_HH
