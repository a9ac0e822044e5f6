#include "math/stats.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace iceb::math
{

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
        static_cast<double>(values.size());
}

double
variance(const std::vector<double> &values)
{
    if (values.size() < 2)
        return 0.0;
    const double mu = mean(values);
    double acc = 0.0;
    for (double v : values)
        acc += (v - mu) * (v - mu);
    return acc / static_cast<double>(values.size());
}

double
stddev(const std::vector<double> &values)
{
    return std::sqrt(variance(values));
}

double
minValue(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::min_element(values.begin(), values.end());
}

double
maxValue(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    return *std::max_element(values.begin(), values.end());
}

double
median(const std::vector<double> &values)
{
    return percentile(values, 0.5);
}

double
percentile(const std::vector<double> &values, double q)
{
    if (values.empty())
        return 0.0;
    ICEB_ASSERT(q >= 0.0 && q <= 1.0, "quantile out of range");
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.size() == 1)
        return sorted.front();
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double
minMaxNormalizeValue(double value, double lo, double hi)
{
    if (hi - lo < 1e-12)
        return 0.5;
    const double norm = (value - lo) / (hi - lo);
    return std::clamp(norm, 0.0, 1.0);
}

double
Cdf::at(double x) const
{
    if (values.empty())
        return 0.0;
    const auto it = std::upper_bound(values.begin(), values.end(), x);
    if (it == values.begin())
        return 0.0;
    const std::size_t idx =
        static_cast<std::size_t>(it - values.begin()) - 1;
    return probabilities[idx];
}

double
Cdf::quantile(double q) const
{
    if (values.empty())
        return 0.0;
    const auto it =
        std::lower_bound(probabilities.begin(), probabilities.end(), q);
    if (it == probabilities.end())
        return values.back();
    return values[static_cast<std::size_t>(it - probabilities.begin())];
}

Cdf
buildCdf(std::vector<double> values)
{
    Cdf cdf;
    if (values.empty())
        return cdf;
    std::sort(values.begin(), values.end());
    cdf.values = std::move(values);
    cdf.probabilities.resize(cdf.values.size());
    const double n = static_cast<double>(cdf.values.size());
    for (std::size_t i = 0; i < cdf.values.size(); ++i)
        cdf.probabilities[i] = static_cast<double>(i + 1) / n;
    return cdf;
}

} // namespace iceb::math
