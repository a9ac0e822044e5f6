/**
 * @file
 * Descriptive statistics used throughout the library: moments,
 * percentiles, min-max normalisation (the paper normalises every
 * utility-score component this way), and empirical CDF construction
 * for the figure reproductions.
 */

#ifndef ICEB_MATH_STATS_HH
#define ICEB_MATH_STATS_HH

#include <cstddef>
#include <vector>

namespace iceb::math
{

/** Arithmetic mean; 0 for empty input. */
double mean(const std::vector<double> &values);

/** Population variance; 0 for fewer than two samples. */
double variance(const std::vector<double> &values);

/** Population standard deviation. */
double stddev(const std::vector<double> &values);

/** Smallest element; 0 for empty input. */
double minValue(const std::vector<double> &values);

/** Largest element; 0 for empty input. */
double maxValue(const std::vector<double> &values);

/** Median (50th percentile). */
double median(const std::vector<double> &values);

/**
 * Percentile with linear interpolation between order statistics.
 * @param q Quantile in [0, 1]; e.g. 0.95 for the paper's tail latency.
 */
double percentile(const std::vector<double> &values, double q);

/**
 * Min-max normalise one value into [0, 1] given precomputed bounds.
 * Equal bounds map to 0.5 (no information to rank on, so everything
 * is "average").
 */
double minMaxNormalizeValue(double value, double lo, double hi);

/**
 * Empirical CDF: sorted sample values paired with cumulative
 * probability, suitable for printing the paper's CDF figures.
 */
struct Cdf
{
    std::vector<double> values;        //!< sorted sample points
    std::vector<double> probabilities; //!< P(X <= values[i])

    /** P(X <= x) by binary search. */
    double at(double x) const;

    /** Inverse CDF (quantile) lookup. */
    double quantile(double q) const;
};

/** Build the empirical CDF of a sample. */
Cdf buildCdf(std::vector<double> values);

} // namespace iceb::math

#endif // ICEB_MATH_STATS_HH
