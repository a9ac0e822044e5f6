/**
 * @file
 * Unit and property tests for the math substrate: linear solving,
 * polynomial fitting, the harmonic least-squares fit and statistics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/matrix.hh"
#include "math/polyfit.hh"
#include "math/stats.hh"

namespace
{

using namespace iceb::math;

// ---------------------------------------------------------- Linear solve

/**
 * The n x (n + 1) augmented system [a | b] of the n x n row-major
 * matrix @p a, the layout solveLinearSystemInPlace takes.
 */
std::vector<double>
augmented(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::size_t n = b.size();
    std::vector<double> aug(n * (n + 1));
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c)
            aug[r * (n + 1) + c] = a[r * n + c];
        aug[r * (n + 1) + n] = b[r];
    }
    return aug;
}

TEST(MatrixTest, SolveKnownSystem)
{
    std::vector<double> aug = augmented({2, 1, 1, 3}, {5.0, 10.0});
    std::vector<double> x;
    solveLinearSystemInPlace(aug, 2, x);
    ASSERT_EQ(x.size(), 2u);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(MatrixTest, SolveRequiresPivoting)
{
    // Leading zero forces a row swap.
    std::vector<double> aug = augmented({0, 1, 1, 0}, {2.0, 3.0});
    std::vector<double> x;
    solveLinearSystemInPlace(aug, 2, x);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(MatrixTest, SolveSingularSetsFlag)
{
    std::vector<double> aug = augmented({1, 2, 2, 4}, {1.0, 2.0});
    std::vector<double> x{7.0};
    bool singular = false;
    solveLinearSystemInPlace(aug, 2, x, &singular);
    EXPECT_TRUE(singular);
    ASSERT_EQ(x.size(), 2u);
    EXPECT_EQ(x[0], 0.0);
    EXPECT_EQ(x[1], 0.0);
}

/** Random solvable systems: A*x recovered within tolerance. */
class SolveSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SolveSizeTest, RecoversPlantedSolution)
{
    const std::size_t n = GetParam();
    std::vector<double> a(n * n);
    std::vector<double> planted(n);
    // Diagonally dominant (guaranteed non-singular).
    for (std::size_t r = 0; r < n; ++r) {
        planted[r] = static_cast<double>(r) - 1.5;
        for (std::size_t c = 0; c < n; ++c)
            a[r * n + c] = (r == c)
                ? 10.0 + static_cast<double>(r)
                : std::sin(static_cast<double>(r * 7 + c));
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            b[r] += a[r * n + c] * planted[c];
    std::vector<double> aug = augmented(a, b);
    std::vector<double> x;
    solveLinearSystemInPlace(aug, n, x);
    ASSERT_EQ(x.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x[i], planted[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizeTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 16u));

// ------------------------------------------------------------ SPD solve

TEST(SpdSolveTest, RecoversPlantedSolution)
{
    for (const std::size_t n : {1u, 2u, 5u, 20u}) {
        // A = B^T B + n I is symmetric positive definite.
        std::vector<double> b(n * n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                b[r * n + c] = std::sin(static_cast<double>(r * 5 + c + 1));
        std::vector<double> a(n * n, 0.0);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                for (std::size_t k = 0; k < n; ++k)
                    a[r * n + c] += b[k * n + r] * b[k * n + c];
        std::vector<double> planted(n);
        for (std::size_t i = 0; i < n; ++i) {
            a[i * n + i] += static_cast<double>(n);
            planted[i] = 0.5 * static_cast<double>(i) - 1.0;
        }
        std::vector<double> x(n, 0.0);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                x[r] += a[r * n + c] * planted[c];
        ASSERT_TRUE(solveSpdInPlace(a.data(), n, x.data()));
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], planted[i], 1e-10) << "n=" << n;
    }
}

TEST(SpdSolveTest, SingularOrIndefiniteIsRejected)
{
    std::vector<double> b{1.0, 2.0};
    std::vector<double> singular{1.0, 2.0, 2.0, 4.0};
    EXPECT_FALSE(solveSpdInPlace(singular.data(), 2, b.data()));
    std::vector<double> indefinite{1.0, 3.0, 3.0, 1.0};
    EXPECT_FALSE(solveSpdInPlace(indefinite.data(), 2, b.data()));
}

// --------------------------------------------------------- Harmonic fit

/**
 * The direct-summation least squares the closed-form fit replaced, kept
 * as its reference: n design rows of per-sample cos/sin at the refined
 * frequencies, the normal matrix accumulated term by term, the same
 * 1e-9 ridge, and Gaussian elimination.
 */
std::vector<Harmonic>
directSumFit(const std::vector<double> &series,
             const std::vector<double> &frequencies, bool *singular)
{
    const std::size_t terms = 2 * frequencies.size();
    const std::size_t stride = terms + 1;
    // [X^T X | X^T y], row-major.
    std::vector<double> aug(terms * stride, 0.0);
    std::vector<double> row(terms);
    for (std::size_t t = 0; t < series.size(); ++t) {
        for (std::size_t i = 0; i < frequencies.size(); ++i) {
            const double angle =
                2.0 * M_PI * frequencies[i] * static_cast<double>(t);
            row[2 * i] = std::cos(angle);
            row[2 * i + 1] = std::sin(angle);
        }
        for (std::size_t a = 0; a < terms; ++a) {
            aug[a * stride + terms] += row[a] * series[t];
            for (std::size_t b = 0; b < terms; ++b)
                aug[a * stride + b] += row[a] * row[b];
        }
    }
    for (std::size_t a = 0; a < terms; ++a)
        aug[a * stride + a] += 1e-9;
    std::vector<double> coeffs;
    solveLinearSystemInPlace(aug, terms, coeffs, singular);

    std::vector<Harmonic> out;
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        Harmonic h;
        h.amplitude = std::hypot(coeffs[2 * i], coeffs[2 * i + 1]);
        h.frequency = frequencies[i];
        h.phase = std::atan2(-coeffs[2 * i + 1], coeffs[2 * i]);
        out.push_back(h);
    }
    return out;
}

std::vector<Harmonic>
byFrequency(std::vector<Harmonic> harmonics)
{
    std::sort(harmonics.begin(), harmonics.end(),
              [](const Harmonic &a, const Harmonic &b) {
                  return a.frequency < b.frequency;
              });
    return harmonics;
}

/**
 * A window with a component near 0 (1.6 cycles), one mid-band, one 1.3
 * bins below Nyquist, one exactly at Nyquist for even lengths (whose
 * peak makes the fit sum D(w + w) = D(2 pi) term by term), and a little
 * deterministic noise.
 */
std::vector<double>
mixedWindow(std::size_t n)
{
    const double len = static_cast<double>(n);
    const double half = static_cast<double>(n / 2);
    std::vector<double> series(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double x = static_cast<double>(t);
        double v = 3.0 * std::cos(2.0 * M_PI * 1.6 * x / len + 0.4) +
            2.0 * std::cos(2.0 * M_PI * 0.31 * x + 1.9) +
            1.5 * std::cos(2.0 * M_PI * (half - 1.3) * x / len - 0.7);
        if (n % 2 == 0)
            v += t % 2 == 0 ? 0.8 : -0.8;
        std::uint64_t h = (t + 1) * 0x9e3779b97f4a7c15ull;
        h ^= h >> 31;
        v += 0.05 * static_cast<double>(h % 1000) / 1000.0;
        series[t] = v;
    }
    return series;
}

/**
 * The closed-form fit against the direct-summation reference at the
 * same refined frequencies: every fitted harmonic, sampled over the
 * window and an 11-step horizon, and the summed horizon forecast agree
 * within 1e-10 of the total fitted amplitude.
 */
TEST(HarmonicFitTest, ClosedFormMatchesDirectSummation)
{
    const std::size_t horizon = 11;
    for (const std::size_t n : {8u, 9u, 12u, 60u, 64u, 120u, 128u}) {
        const std::vector<double> series = mixedWindow(n);
        const std::vector<Complex> spectrum = fftReal(series);
        HarmonicsWorkspace ws;
        ws.magnitude.assign(n / 2 + 1, 0.0);
        for (std::size_t b = 1; b <= n / 2; ++b)
            ws.magnitude[b] = std::abs(spectrum[b]);
        std::vector<Harmonic> fit;
        decomposeFromMagnitudes(series.data(), n, 10, fit, ws);
        ASSERT_FALSE(fit.empty()) << "n=" << n;
        bool singular = true;
        const std::vector<Harmonic> ref =
            directSumFit(series, ws.frequencies, &singular);
        ASSERT_FALSE(singular) << "n=" << n;

        double scale = 0.0;
        for (const Harmonic &h : ref)
            scale += h.amplitude;
        const double tol = 1e-10 * scale;
        const std::vector<Harmonic> got = byFrequency(fit);
        const std::vector<Harmonic> want = byFrequency(ref);
        ASSERT_EQ(got.size(), want.size()) << "n=" << n;
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].frequency, want[i].frequency) << "n=" << n;
            for (std::size_t t = 0; t < n + horizon; ++t) {
                const double at = static_cast<double>(t);
                EXPECT_NEAR(got[i].evaluate(at), want[i].evaluate(at), tol)
                    << "n=" << n << " f=" << got[i].frequency
                    << " t=" << t;
            }
        }
        for (std::size_t step = 0; step < horizon; ++step) {
            const double at = static_cast<double>(n + step);
            EXPECT_NEAR(evaluateHarmonics(fit, at),
                        evaluateHarmonics(ref, at), tol)
                << "n=" << n << " step=" << step;
        }
    }
}

/**
 * Two equal adjacent bins both count as peaks and refine onto one
 * frequency, so two design columns coincide. The ridge keeps the
 * system solvable (the direct-summation reference splits the amplitude
 * between the twins the same way), and the summed fit over the window
 * and the horizon matches the reference within 1e-10 relative.
 */
TEST(HarmonicFitTest, FlatTopSplitsAmplitudeLikeDirectSummation)
{
    const std::size_t horizon = 11;
    for (const std::size_t n : {8u, 9u, 12u, 60u, 64u, 120u, 128u}) {
        const std::size_t k = n / 4;
        const double len = static_cast<double>(n);
        std::vector<double> series(n);
        for (std::size_t t = 0; t < n; ++t) {
            const double x = static_cast<double>(t);
            series[t] =
                std::cos(2.0 * M_PI * static_cast<double>(k) * x / len) +
                std::cos(2.0 * M_PI * static_cast<double>(k + 1) * x / len);
        }
        const std::vector<Complex> spectrum = fftReal(series);
        HarmonicsWorkspace ws;
        ws.magnitude.assign(n / 2 + 1, 0.0);
        for (std::size_t b = 1; b <= n / 2; ++b)
            ws.magnitude[b] = std::abs(spectrum[b]);
        ws.magnitude[k + 1] = ws.magnitude[k]; // an exactly flat top

        std::vector<Harmonic> fit;
        decomposeFromMagnitudes(series.data(), n, 10, fit, ws);
        ASSERT_GE(ws.frequencies.size(), 2u);
        ASSERT_EQ(ws.frequencies[0], ws.frequencies[1]) << "n=" << n;
        bool singular = true;
        const std::vector<Harmonic> ref =
            directSumFit(series, ws.frequencies, &singular);
        ASSERT_FALSE(singular) << "n=" << n;
        ASSERT_EQ(fit.size(), ref.size()) << "n=" << n;

        double scale = 0.0;
        for (const Harmonic &h : ref)
            scale += h.amplitude;
        for (std::size_t t = 0; t < n + horizon; ++t) {
            const double at = static_cast<double>(t);
            EXPECT_NEAR(evaluateHarmonics(fit, at),
                        evaluateHarmonics(ref, at), 1e-10 * scale)
                << "n=" << n << " t=" << t;
        }
    }
}

// -------------------------------------------------------- FactoredSystem

/**
 * The batched trend fit factors each group's normal matrix once and
 * replays the elimination per lane; the replay must reproduce the
 * direct augmented solve bit for bit, not merely within tolerance.
 */
TEST(FactoredSystemTest, ReplayMatchesDirectSolveBitwise)
{
    for (const std::size_t n : {1u, 2u, 3u, 5u, 8u}) {
        std::vector<double> flat(n * n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) {
                flat[r * n + c] = (r == c)
                    ? 10.0 + static_cast<double>(r)
                    : std::sin(static_cast<double>(r * 7 + c));
            }
        }

        FactoredSystem system;
        system.factor(flat.data(), n);
        ASSERT_FALSE(system.singular());

        std::vector<double> b(n), x(n);
        for (std::size_t trial = 0; trial < 4; ++trial) {
            for (std::size_t i = 0; i < n; ++i)
                b[i] = std::cos(static_cast<double>(trial * 11 + i)) *
                    static_cast<double>(i + 1);
            system.solve(b.data(), x.data());
            std::vector<double> aug = augmented(flat, b);
            std::vector<double> direct;
            solveLinearSystemInPlace(aug, n, direct);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(x[i]),
                          std::bit_cast<std::uint64_t>(direct[i]))
                    << "n=" << n << " trial=" << trial << " i=" << i;
            }
        }
    }
}

TEST(FactoredSystemTest, ReplayHandlesPivoting)
{
    const std::vector<double> flat{0.0, 1.0, 1.0, 0.0};
    FactoredSystem system;
    system.factor(flat.data(), 2);
    ASSERT_FALSE(system.singular());
    const std::vector<double> b{2.0, 3.0};
    std::vector<double> x(2);
    system.solve(b.data(), x.data());
    std::vector<double> aug = augmented(flat, b);
    std::vector<double> direct;
    solveLinearSystemInPlace(aug, 2, direct);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[0]),
              std::bit_cast<std::uint64_t>(direct[0]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[1]),
              std::bit_cast<std::uint64_t>(direct[1]));
}

TEST(FactoredSystemTest, SingularSystemFlagsAndZeroes)
{
    const std::vector<double> flat{1.0, 2.0, 2.0, 4.0};
    FactoredSystem system;
    system.factor(flat.data(), 2);
    EXPECT_TRUE(system.singular());
    std::vector<double> x{7.0, 7.0};
    const std::vector<double> b{1.0, 2.0};
    system.solve(b.data(), x.data());
    EXPECT_EQ(x[0], 0.0);
    EXPECT_EQ(x[1], 0.0);
}

TEST(FactoredSystemTest, SolveInPlaceAliasesRhs)
{
    const std::vector<double> flat{2.0, 1.0, 1.0, 3.0};
    FactoredSystem system;
    system.factor(flat.data(), 2);
    std::vector<double> x{5.0, 10.0};
    system.solve(x.data(), x.data());
    std::vector<double> aug = augmented(flat, {5.0, 10.0});
    std::vector<double> direct;
    solveLinearSystemInPlace(aug, 2, direct);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[0]),
              std::bit_cast<std::uint64_t>(direct[0]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x[1]),
              std::bit_cast<std::uint64_t>(direct[1]));
}

// --------------------------------------------------------------- Polyfit

TEST(PolyfitTest, EvaluateHorner)
{
    const Polynomial p(std::vector<double>{1.0, -2.0, 3.0});
    EXPECT_DOUBLE_EQ(p.evaluate(0.0), 1.0);
    EXPECT_DOUBLE_EQ(p.evaluate(2.0), 1.0 - 4.0 + 12.0);
    EXPECT_DOUBLE_EQ(p.coeff(2), 3.0);
    EXPECT_DOUBLE_EQ(p.coeff(9), 0.0);
}

TEST(PolyfitTest, ExactQuadraticRecovery)
{
    std::vector<double> y;
    for (int i = 0; i < 20; ++i)
        y.push_back(2.0 * i * i - 3.0 * i + 5.0);
    const Polynomial p = polyfitSeries(y, 2);
    EXPECT_NEAR(p.coeff(0), 5.0, 1e-6);
    EXPECT_NEAR(p.coeff(1), -3.0, 1e-6);
    EXPECT_NEAR(p.coeff(2), 2.0, 1e-7);
}

TEST(PolyfitTest, SeriesFitMatchesExplicitX)
{
    std::vector<double> y;
    for (int i = 0; i < 15; ++i)
        y.push_back(0.5 * i + 1.0);
    const Polynomial p = polyfitSeries(y, 1);
    EXPECT_NEAR(p.coeff(0), 1.0, 1e-9);
    EXPECT_NEAR(p.coeff(1), 0.5, 1e-9);
}

TEST(PolyfitTest, DegenerateXFallsBackToMean)
{
    // Fewer samples than coefficients make the normal equations
    // singular; the fit falls back to the samples' mean level.
    const Polynomial one = polyfitSeries({4.5}, 1);
    EXPECT_EQ(one.coeff(0), 4.5);
    EXPECT_EQ(one.coeff(1), 0.0);
    const Polynomial two = polyfitSeries({3.0, 6.0}, 2);
    EXPECT_EQ(two.coeff(0), 4.5);
    EXPECT_EQ(two.coeff(1), 0.0);
    EXPECT_EQ(two.coeff(2), 0.0);
    EXPECT_EQ(two.evaluate(7.0), 4.5);
}

TEST(PolyfitTest, DetrendRemovesTrend)
{
    std::vector<double> y;
    for (int i = 0; i < 30; ++i)
        y.push_back(4.0 * i + 7.0 + std::sin(i));
    const Polynomial trend = polyfitSeries(y, 1);
    const std::vector<double> residual = detrend(y, trend);
    // Residual should be bounded by the sinusoid, not the trend.
    for (double r : residual)
        EXPECT_LT(std::fabs(r), 1.5);
}

TEST(PolyfitTest, ResidualSumOfSquaresZeroForPerfectFit)
{
    // A line is fitted exactly: detrending by the fit leaves residuals
    // whose sum of squares is zero.
    std::vector<double> y;
    for (int i = 0; i < 12; ++i)
        y.push_back(1.0 + 2.0 * i);
    const std::vector<double> residual = detrend(y, polyfitSeries(y, 1));
    ASSERT_EQ(residual.size(), y.size());
    double rss = 0.0;
    for (const double r : residual)
        rss += r * r;
    EXPECT_NEAR(rss, 0.0, 1e-9);
}

/** polyfitSeries recovers planted polynomials of every degree. */
class PolyDegreeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PolyDegreeTest, RecoversPlantedCoefficients)
{
    const std::size_t degree = GetParam();
    std::vector<double> coeffs;
    for (std::size_t k = 0; k <= degree; ++k)
        coeffs.push_back(0.3 * static_cast<double>(k + 1));
    const Polynomial planted(coeffs);
    std::vector<double> y;
    for (int i = 0; i < 40; ++i)
        y.push_back(planted.evaluate(i));
    const Polynomial fit = polyfitSeries(y, degree);
    for (std::size_t k = 0; k <= degree; ++k)
        EXPECT_NEAR(fit.coeff(k), coeffs[k], 1e-5) << "degree " << k;
}

INSTANTIATE_TEST_SUITE_P(Degrees, PolyDegreeTest,
                         ::testing::Values(0u, 1u, 2u, 3u));

// ----------------------------------------------------------------- Stats

TEST(StatsTest, MeanVarianceStddev)
{
    const std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(v), 5.0);
    EXPECT_DOUBLE_EQ(variance(v), 4.0);
    EXPECT_DOUBLE_EQ(stddev(v), 2.0);
}

TEST(StatsTest, EmptyInputsAreZero)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(variance({}), 0.0);
    EXPECT_DOUBLE_EQ(minValue({}), 0.0);
    EXPECT_DOUBLE_EQ(maxValue({}), 0.0);
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(StatsTest, PercentileInterpolates)
{
    const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(median(v), 25.0);
}

TEST(StatsTest, PercentileUnsortedInput)
{
    const std::vector<double> v{40.0, 10.0, 30.0, 20.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25.0);
}

TEST(StatsTest, MinMaxNormalizeRange)
{
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(1.0, 1.0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(3.0, 1.0, 5.0), 0.5);
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(5.0, 1.0, 5.0), 1.0);
    // Values outside the bounds clamp into [0, 1].
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(-2.0, 1.0, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(9.0, 1.0, 5.0), 1.0);
}

TEST(StatsTest, MinMaxNormalizeConstantIsHalf)
{
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(4.0, 4.0, 4.0), 0.5);
    EXPECT_DOUBLE_EQ(minMaxNormalizeValue(7.0, 4.0, 4.0), 0.5);
}

TEST(StatsTest, CdfLookupAndQuantile)
{
    const Cdf cdf = buildCdf({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
    EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
    EXPECT_DOUBLE_EQ(cdf.at(99.0), 1.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.0);
    EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
}

} // namespace
