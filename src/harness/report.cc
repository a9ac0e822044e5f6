#include "harness/report.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace iceb::harness
{

double
improvementOver(double baseline, double value)
{
    if (baseline == 0.0)
        return 0.0;
    return (baseline - value) / baseline;
}

ServiceSummary
summarizeService(const std::vector<float> &samples_ms)
{
    ServiceSummary out;
    if (samples_ms.empty())
        return out;
    std::vector<double> samples(samples_ms.begin(), samples_ms.end());
    out.mean_ms = math::mean(samples);
    out.median_ms = math::median(samples);
    out.p95_ms = math::percentile(samples, 0.95);
    return out;
}

ServiceSummary
summarizeService(const sim::SimulationMetrics &metrics)
{
    return summarizeService(metrics.service_times_ms);
}

std::vector<double>
perFunctionServiceImprovement(const sim::SimulationMetrics &baseline,
                              const sim::SimulationMetrics &test)
{
    ICEB_ASSERT(baseline.per_function.size() == test.per_function.size(),
                "runs cover different function sets");
    std::vector<double> out;
    out.reserve(baseline.per_function.size());
    for (std::size_t fn = 0; fn < baseline.per_function.size(); ++fn) {
        const auto &b = baseline.per_function[fn];
        const auto &t = test.per_function[fn];
        if (b.invocations == 0 || t.invocations == 0)
            continue;
        out.push_back(
            improvementOver(b.meanServiceMs(), t.meanServiceMs()));
    }
    return out;
}

std::vector<double>
cohortImprovement(const sim::SimulationMetrics &baseline,
                  const sim::SimulationMetrics &test,
                  const std::vector<FunctionId> &cohort)
{
    std::vector<double> out;
    out.reserve(cohort.size());
    for (FunctionId fn : cohort) {
        const auto &b = baseline.per_function[fn];
        const auto &t = test.per_function[fn];
        if (b.invocations == 0 || t.invocations == 0)
            continue;
        out.push_back(
            improvementOver(b.meanServiceMs(), t.meanServiceMs()));
    }
    return out;
}

namespace
{

/**
 * Ids of the top @p fraction of functions ranked descending by
 * @p key (only functions with invocations participate).
 */
std::vector<FunctionId>
topFraction(const std::vector<std::pair<double, FunctionId>> &ranked,
            double fraction)
{
    const auto take = static_cast<std::size_t>(
        std::ceil(fraction * static_cast<double>(ranked.size())));
    std::vector<FunctionId> out;
    out.reserve(take);
    for (std::size_t i = 0; i < take && i < ranked.size(); ++i)
        out.push_back(ranked[i].second);
    return out;
}

} // namespace

Cohorts
buildCohorts(const trace::Trace &trace,
             const sim::SimulationMetrics &baseline, double fraction)
{
    Cohorts cohorts;
    std::vector<std::pair<double, FunctionId>> by_cold;
    std::vector<std::pair<double, FunctionId>> by_count;
    std::vector<std::pair<double, FunctionId>> by_spike;

    for (FunctionId fn = 0; fn < trace.numFunctions(); ++fn) {
        const auto &fm = baseline.per_function[fn];
        if (fm.invocations == 0)
            continue;
        const double mean_cold = fm.sum_cold_ms /
            static_cast<double>(fm.invocations);
        by_cold.emplace_back(mean_cold, fn);
        by_count.emplace_back(static_cast<double>(fm.invocations), fn);

        const auto &series = trace.function(fn).concurrency;
        double mean = 0.0;
        double peak = 0.0;
        for (std::uint32_t c : series) {
            mean += c;
            peak = std::max(peak, static_cast<double>(c));
        }
        mean /= static_cast<double>(series.size());
        by_spike.emplace_back(mean > 0.0 ? peak / mean : 0.0, fn);
    }

    auto desc = [](auto &v) {
        std::sort(v.begin(), v.end(), [](const auto &a, const auto &b) {
            if (a.first != b.first)
                return a.first > b.first;
            return a.second < b.second;
        });
    };
    desc(by_cold);
    desc(by_spike);
    desc(by_count);

    cohorts.hard_to_predict = topFraction(by_cold, fraction);
    cohorts.frequent = topFraction(by_count, fraction);
    cohorts.spiky = topFraction(by_spike, fraction);

    std::reverse(by_count.begin(), by_count.end());
    cohorts.infrequent = topFraction(by_count, fraction);
    return cohorts;
}

} // namespace iceb::harness
