/**
 * @file
 * Reporting helpers shared by the bench binaries: improvement-over-
 * baseline math, service-time summaries, per-function improvement
 * CDFs and the paper's function cohorts (hard-to-predict, infrequent,
 * frequent, spiky).
 */

#ifndef ICEB_HARNESS_REPORT_HH
#define ICEB_HARNESS_REPORT_HH

#include <vector>

#include "math/stats.hh"
#include "sim/metrics.hh"
#include "trace/trace.hh"

namespace iceb::harness
{

/**
 * Fractional improvement of @p value over @p baseline (0.40 = "40%
 * better than baseline"). Negative values mean degradation. Zero
 * baseline yields zero.
 */
double improvementOver(double baseline, double value);

/** Mean / median / 95th-percentile of a run's service times (ms). */
struct ServiceSummary
{
    double mean_ms = 0.0;
    double median_ms = 0.0;
    double p95_ms = 0.0;
};

/** Summarise all (or one tier's) service times of a run. */
ServiceSummary summarizeService(const std::vector<float> &samples_ms);

/** Summary over the run's full service-time sample. */
ServiceSummary summarizeService(const sim::SimulationMetrics &metrics);

/**
 * Per-function mean-service-time improvement of @p test over
 * @p baseline, for functions with invocations in both (Fig. 7/14).
 */
std::vector<double>
perFunctionServiceImprovement(const sim::SimulationMetrics &baseline,
                              const sim::SimulationMetrics &test);

/** Restrict a per-function improvement to a cohort of ids. */
std::vector<double>
cohortImprovement(const sim::SimulationMetrics &baseline,
                  const sim::SimulationMetrics &test,
                  const std::vector<FunctionId> &cohort);

/** The paper's evaluation cohorts (Sec. 5). */
struct Cohorts
{
    std::vector<FunctionId> hard_to_predict; //!< top 15% mean cold time
    std::vector<FunctionId> infrequent;      //!< bottom 15% invocations
    std::vector<FunctionId> frequent;        //!< top 15% invocations
    std::vector<FunctionId> spiky;           //!< top 15% concurrency spike
};

/**
 * Build the cohorts from the baseline run (hard-to-predict = highest
 * average cold-start time under the baseline, per the paper) and the
 * trace (invocation counts, spike ratios).
 */
Cohorts buildCohorts(const trace::Trace &trace,
                     const sim::SimulationMetrics &baseline,
                     double fraction = 0.15);

} // namespace iceb::harness

#endif // ICEB_HARNESS_REPORT_HH
