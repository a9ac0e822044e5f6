/**
 * @file
 * Reproduces the paper's standard experiment -- every scheme on the
 * Azure-like trace and the default heterogeneous cluster (Secs. 4-5)
 * -- and prints each figure that reads it from one five-scheme run:
 *
 *  - Fig. 6 (and the Sec. 5 median/tail numbers): overall keep-alive
 *    cost and service time as improvements over the OpenWhisk
 *    baseline.
 *  - Fig. 7: CDFs of per-function service-time improvement over the
 *    baseline, overall and split by executing tier. The paper's
 *    claims: IceBreaker improves > 98% of functions and its CDF
 *    tracks the Oracle's; competing schemes degrade > 25% of
 *    functions.
 *  - Fig. 8: the service-time component breakdown. All schemes share
 *    both tiers, so execution time differs only mildly; IceBreaker's
 *    advantage concentrates in the cold-start and wait components
 *    (plus its fixed decision overhead, charged pessimistically as in
 *    the paper).
 *  - Fig. 9: keep-alive cost split into successful warm-ups (the
 *    warmed instance served an invocation) and wasteful warm-ups
 *    (warmed but destroyed unused), per server tier and per scheme --
 *    plus the memory-wastage comparison from the same section.
 *  - Fig. 14 and the surrounding Sec. 5 cohort analysis: service-time
 *    and keep-alive improvements for the hard-to-predict and
 *    infrequent function cohorts (bottom/top 15% as the paper defines
 *    them), plus the frequent and concurrency-spike cohorts from the
 *    text.
 *
 * Figs. 7, 8, 9 and 14 read each scheme's replicate-pooled metrics.
 */

#include <algorithm>
#include <iostream>

#include "bench/bench_util.hh"
#include "math/stats.hh"

namespace
{

using namespace iceb;

using Results = std::vector<harness::SchemeSummary>;

void
printFig6(const Results &results)
{
    bench::printSchemeComparison(
        "Fig. 6: keep-alive cost (a) and service time (b) vs the "
        "OpenWhisk baseline",
        results);

    // Sec. 5 text: median and 95th-percentile improvements, over the
    // replicate-pooled service-time samples.
    const harness::ServiceSummary base =
        harness::summarizeService(results.front().summary.pooled);
    TextTable tail("Sec. 5: median and tail (p95) service-time "
                   "improvements over baseline");
    tail.setHeader({"scheme", "median impr.", "p95 impr."});
    for (const auto &result : results) {
        const harness::ServiceSummary s =
            harness::summarizeService(result.summary.pooled);
        tail.addRow({
            harness::schemeName(result.scheme),
            TextTable::pct(harness::improvementOver(base.median_ms,
                                                    s.median_ms)),
            TextTable::pct(
                harness::improvementOver(base.p95_ms, s.p95_ms)),
        });
    }
    std::cout << "\n";
    tail.print(std::cout);

    std::cout << "\nShape check (paper): IceBreaker leads both "
                 "metrics, beats the next-best\nscheme by tens of "
                 "points on keep-alive cost, and sits closest to the\n"
                 "Oracle's service time.\n";
}

void
printFig7(const Results &results)
{
    const sim::SimulationMetrics &baseline =
        results.front().summary.pooled;

    TextTable cdf("Fig. 7: per-function service-time improvement "
                  "CDF quantiles vs baseline");
    cdf.setHeader({"scheme", "p10", "p25", "median", "p75", "p90",
                   "improved fns"});
    for (const auto &result : results) {
        if (result.scheme == harness::Scheme::OpenWhisk)
            continue;
        std::vector<double> improvement =
            harness::perFunctionServiceImprovement(baseline,
                                                   result.summary.pooled);
        const double improved_frac =
            static_cast<double>(std::count_if(
                improvement.begin(), improvement.end(),
                [](double v) { return v > 0.0; })) /
            static_cast<double>(improvement.size());
        cdf.addRow({
            harness::schemeName(result.scheme),
            TextTable::pct(math::percentile(improvement, 0.10)),
            TextTable::pct(math::percentile(improvement, 0.25)),
            TextTable::pct(math::median(improvement)),
            TextTable::pct(math::percentile(improvement, 0.75)),
            TextTable::pct(math::percentile(improvement, 0.90)),
            TextTable::pct(improved_frac),
        });
    }
    cdf.print(std::cout);

    // Tier split: mean service time of invocations executing on each
    // tier, per scheme.
    TextTable tiers("Fig. 7 (tier split): mean service time by "
                    "executing tier");
    tiers.setHeader({"scheme", "high-end (ms)", "low-end (ms)",
                     "high-end share"});
    for (const auto &result : results) {
        const auto &m = result.summary.pooled;
        const auto mean_of = [](const std::vector<float> &v) {
            if (v.empty())
                return 0.0;
            double acc = 0.0;
            for (float x : v)
                acc += x;
            return acc / static_cast<double>(v.size());
        };
        const double share =
            static_cast<double>(m.service_times_high_ms.size()) /
            static_cast<double>(m.invocations);
        tiers.addRow({
            harness::schemeName(result.scheme),
            TextTable::num(mean_of(m.service_times_high_ms), 0),
            TextTable::num(mean_of(m.service_times_low_ms), 0),
            TextTable::pct(share),
        });
    }
    std::cout << "\n";
    tiers.print(std::cout);

    std::cout << "\nShape check: IceBreaker's improved-function "
                 "fraction approaches the\nOracle's and its quantiles "
                 "dominate Wild's and FaasCache's.\n";
}

void
printFig8(const Results &results)
{
    TextTable table("Fig. 8: mean service-time components per scheme "
                    "(ms)");
    table.setHeader({"scheme", "exec", "cold start", "wait", "overhead",
                     "total"});
    for (const auto &result : results) {
        const auto &m = result.summary.pooled;
        const double n = static_cast<double>(m.invocations);
        table.addRow({
            harness::schemeName(result.scheme),
            TextTable::num(m.meanExecMs(), 0),
            TextTable::num(m.meanColdMs(), 0),
            TextTable::num(m.meanWaitMs(), 1),
            TextTable::num(m.sum_overhead_ms / n, 0),
            TextTable::num(m.meanServiceMs(), 0),
        });
    }
    table.print(std::cout);

    const auto &base = results.front().summary.pooled;
    const auto &ib = results[3].summary.pooled;
    const auto &oracle = results.back().summary.pooled;
    std::cout << "\ncold-start component improvement over baseline: "
              << TextTable::pct(harness::improvementOver(
                     base.meanColdMs(), ib.meanColdMs()))
              << " (IceBreaker)\n"
              << "IceBreaker vs Oracle cold-start gap:            "
              << TextTable::num(ib.meanColdMs() - oracle.meanColdMs(),
                                0)
              << " ms (paper: small)\n"
              << "execution-time spread across schemes:           "
              << TextTable::pct(
                     (ib.meanExecMs() - base.meanExecMs()) /
                     base.meanExecMs())
              << " (paper: minor)\n";
}

void
printFig9(const Results &results)
{
    for (Tier tier : {Tier::HighEnd, Tier::LowEnd}) {
        TextTable table(std::string("Fig. 9: warm-up cost on the ") +
                        tierName(tier) + " tier");
        table.setHeader({"scheme", "successful $", "wasteful $",
                         "wasted GB-min"});
        for (const auto &result : results) {
            const sim::TierKeepAlive &ka =
                result.summary.pooled.tierKeepAlive(tier);
            table.addRow({
                harness::schemeName(result.scheme),
                TextTable::num(ka.successful_cost, 3),
                TextTable::num(ka.wasteful_cost, 3),
                TextTable::num(ka.wasted_mb_ms / 1024.0 / 60'000.0, 0),
            });
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    const auto wasteful_high = [&](std::size_t i) {
        return results[i].summary.pooled.tierKeepAlive(Tier::HighEnd)
            .wasteful_cost;
    };
    std::cout << "IceBreaker wasteful warm-up improvement on "
                 "high-end vs baseline: "
              << TextTable::pct((wasteful_high(0) - wasteful_high(3)) /
                                wasteful_high(0))
              << " (paper: > 65%)\n";
}

double
cohortKeepAlive(const sim::SimulationMetrics &metrics,
                const std::vector<FunctionId> &cohort)
{
    double total = 0.0;
    for (FunctionId fn : cohort)
        total += metrics.per_function[fn].keep_alive_cost;
    return total;
}

void
printFig14(const trace::Trace &trace, const Results &results)
{
    const sim::SimulationMetrics &baseline =
        results.front().summary.pooled;

    const harness::Cohorts cohorts =
        harness::buildCohorts(trace, baseline);
    const struct
    {
        const char *name;
        const std::vector<FunctionId> *functions;
    } groups[] = {
        {"hard-to-predict (top 15% cold time)",
         &cohorts.hard_to_predict},
        {"infrequent (bottom 15% invocations)", &cohorts.infrequent},
        {"frequent (top 15% invocations)", &cohorts.frequent},
        {"spiky (top 15% concurrency spikes)", &cohorts.spiky},
    };

    for (const auto &group : groups) {
        TextTable table(std::string("Fig. 14 cohort: ") + group.name);
        table.setHeader({"scheme", "median svc impr.",
                         "mean svc impr.", "cohort ka impr."});
        const double base_ka =
            cohortKeepAlive(baseline, *group.functions);
        for (const auto &result : results) {
            if (result.scheme == harness::Scheme::OpenWhisk)
                continue;
            const std::vector<double> improvement =
                harness::cohortImprovement(baseline,
                                           result.summary.pooled,
                                           *group.functions);
            const double ka = cohortKeepAlive(result.summary.pooled,
                                              *group.functions);
            table.addRow({
                harness::schemeName(result.scheme),
                TextTable::pct(math::median(improvement)),
                TextTable::pct(math::mean(improvement)),
                TextTable::pct(
                    harness::improvementOver(base_ka, ka)),
            });
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "Shape check: IceBreaker is the closest to the "
                 "Oracle for the hard-to-predict\nand infrequent "
                 "cohorts, where competing schemes show left-tail "
                 "degradation.\n";
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchOptions options =
        bench::parseBenchOptions(argc, argv);
    const harness::Workload workload = options.smoke
        ? bench::smokeWorkload()
        : bench::standardWorkload();
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();
    std::cout << "workload: " << workload.trace.numFunctions()
              << " functions, " << workload.trace.totalInvocations()
              << " invocations, cluster " << cluster.name << "\n\n";

    const Results results = harness::runAllSchemesParallel(
        workload, cluster, bench::runnerOptions(options));
    printFig6(results);
    std::cout << "\n";
    printFig7(results);
    std::cout << "\n";
    printFig8(results);
    std::cout << "\n";
    printFig9(results);
    std::cout << "\n";
    printFig14(workload.trace, results);
    return 0;
}
