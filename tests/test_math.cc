/**
 * @file
 * Unit and property tests for the math substrate: matrices, linear
 * solving, polynomial fitting, the harmonic least-squares fit,
 * statistics and the chi-square test.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "math/chi2.hh"
#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/matrix.hh"
#include "math/polyfit.hh"
#include "math/stats.hh"

namespace
{

using namespace iceb::math;

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, IdentityMultiplication)
{
    const Matrix m = Matrix::fromRows({{1, 2}, {3, 4}});
    const Matrix i = Matrix::identity(2);
    const Matrix out = m.multiply(i);
    EXPECT_DOUBLE_EQ(out.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(out.at(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(out.at(1, 0), 3.0);
    EXPECT_DOUBLE_EQ(out.at(1, 1), 4.0);
}

TEST(MatrixTest, ProductShapeAndValues)
{
    const Matrix a = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix b = Matrix::fromRows({{7, 8}, {9, 10}, {11, 12}});
    const Matrix c = a.multiply(b);
    ASSERT_EQ(c.rows(), 2u);
    ASSERT_EQ(c.cols(), 2u);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, TransposeRoundTrip)
{
    const Matrix a = Matrix::fromRows({{1, 2, 3}, {4, 5, 6}});
    const Matrix t = a.transposed();
    ASSERT_EQ(t.rows(), 3u);
    ASSERT_EQ(t.cols(), 2u);
    const Matrix back = t.transposed();
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(back.at(r, c), a.at(r, c));
}

TEST(MatrixTest, MatrixVectorProduct)
{
    const Matrix a = Matrix::fromRows({{2, 0}, {1, 3}});
    const std::vector<double> v{1.0, 2.0};
    const std::vector<double> out = a.multiply(v);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], 7.0);
}

TEST(MatrixTest, SolveKnownSystem)
{
    const Matrix a = Matrix::fromRows({{2, 1}, {1, 3}});
    const std::vector<double> b{5.0, 10.0};
    const std::vector<double> x = solveLinearSystem(a, b);
    EXPECT_NEAR(x[0], 1.0, 1e-9);
    EXPECT_NEAR(x[1], 3.0, 1e-9);
}

TEST(MatrixTest, SolveRequiresPivoting)
{
    // Leading zero forces a row swap.
    const Matrix a = Matrix::fromRows({{0, 1}, {1, 0}});
    const std::vector<double> b{2.0, 3.0};
    const std::vector<double> x = solveLinearSystem(a, b);
    EXPECT_NEAR(x[0], 3.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(MatrixTest, SolveSingularSetsFlag)
{
    const Matrix a = Matrix::fromRows({{1, 2}, {2, 4}});
    const std::vector<double> b{1.0, 2.0};
    bool singular = false;
    const std::vector<double> x = solveLinearSystem(a, b, &singular);
    EXPECT_TRUE(singular);
    EXPECT_EQ(x.size(), 2u);
}

TEST(MatrixTest, DotProduct)
{
    EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
    EXPECT_DOUBLE_EQ(dot({}, {}), 0.0);
}

/** Random solvable systems: A*x recovered within tolerance. */
class SolveSizeTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(SolveSizeTest, RecoversPlantedSolution)
{
    const std::size_t n = GetParam();
    Matrix a(n, n);
    std::vector<double> planted(n);
    // Diagonally dominant (guaranteed non-singular).
    for (std::size_t r = 0; r < n; ++r) {
        planted[r] = static_cast<double>(r) - 1.5;
        for (std::size_t c = 0; c < n; ++c)
            a.at(r, c) = (r == c)
                ? 10.0 + static_cast<double>(r)
                : std::sin(static_cast<double>(r * 7 + c));
    }
    const std::vector<double> b = a.multiply(planted);
    const std::vector<double> x = solveLinearSystem(a, b);
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
        Matrix b(n, n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                b.at(r, c) = std::sin(static_cast<double>(r * 5 + c + 1));
        Matrix a = b.transposed().multiply(b);
        std::vector<double> planted(n);
        for (std::size_t i = 0; i < n; ++i) {
            a.at(i, i) += static_cast<double>(n);
            planted[i] = 0.5 * static_cast<double>(i) - 1.0;
        }
        std::vector<double> x = a.multiply(planted);
        std::vector<double> flat(n * n);
        for (std::size_t r = 0; r < n; ++r)
            for (std::size_t c = 0; c < n; ++c)
                flat[r * n + c] = a.at(r, c);
        ASSERT_TRUE(solveSpdInPlace(flat.data(), n, x.data()));
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
    Matrix xtx(terms, terms);
    std::vector<double> xty(terms, 0.0);
    std::vector<double> row(terms);
    for (std::size_t t = 0; t < series.size(); ++t) {
        for (std::size_t i = 0; i < frequencies.size(); ++i) {
            const double angle =
                2.0 * M_PI * frequencies[i] * static_cast<double>(t);
            row[2 * i] = std::cos(angle);
            row[2 * i + 1] = std::sin(angle);
        }
        for (std::size_t a = 0; a < terms; ++a) {
            xty[a] += row[a] * series[t];
            for (std::size_t b = 0; b < terms; ++b)
                xtx.at(a, b) += row[a] * row[b];
        }
    }
    for (std::size_t a = 0; a < terms; ++a)
        xtx.at(a, a) += 1e-9;
    const std::vector<double> coeffs = solveLinearSystem(xtx, xty, singular);

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
        HarmonicsWorkspace ws;
        std::vector<Harmonic> fit;
        decomposeForExtrapolation(series.data(), n, 10, fit, ws);
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
        Matrix a(n, n);
        std::vector<double> flat(n * n);
        for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) {
                const double v = (r == c)
                    ? 10.0 + static_cast<double>(r)
                    : std::sin(static_cast<double>(r * 7 + c));
                a.at(r, c) = v;
                flat[r * n + c] = v;
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
            const std::vector<double> direct = solveLinearSystem(a, b);
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
    const Matrix a = Matrix::fromRows({{0, 1}, {1, 0}});
    const std::vector<double> flat{0.0, 1.0, 1.0, 0.0};
    FactoredSystem system;
    system.factor(flat.data(), 2);
    ASSERT_FALSE(system.singular());
    const std::vector<double> b{2.0, 3.0};
    std::vector<double> x(2);
    system.solve(b.data(), x.data());
    const std::vector<double> direct = solveLinearSystem(a, b);
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
    const Matrix a = Matrix::fromRows({{2, 1}, {1, 3}});
    const std::vector<double> flat{2.0, 1.0, 1.0, 3.0};
    FactoredSystem system;
    system.factor(flat.data(), 2);
    std::vector<double> x{5.0, 10.0};
    system.solve(x.data(), x.data());
    const std::vector<double> direct =
        solveLinearSystem(a, {5.0, 10.0});
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
    std::vector<double> x, y;
    for (int i = 0; i < 20; ++i) {
        x.push_back(i);
        y.push_back(2.0 * i * i - 3.0 * i + 5.0);
    }
    const Polynomial p = polyfit(x, y, 2);
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
    const std::vector<double> x(10, 3.0);
    std::vector<double> y;
    for (int i = 0; i < 10; ++i)
        y.push_back(i);
    const Polynomial p = polyfit(x, y, 2);
    EXPECT_NEAR(p.evaluate(3.0), 4.5, 1e-9);
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
    std::vector<double> y;
    for (int i = 0; i < 12; ++i)
        y.push_back(1.0 + 2.0 * i);
    const Polynomial trend = polyfitSeries(y, 1);
    EXPECT_NEAR(residualSumOfSquares(y, trend), 0.0, 1e-9);
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
    const std::vector<double> v{1.0, 3.0, 5.0};
    const std::vector<double> n = minMaxNormalize(v);
    EXPECT_DOUBLE_EQ(n[0], 0.0);
    EXPECT_DOUBLE_EQ(n[1], 0.5);
    EXPECT_DOUBLE_EQ(n[2], 1.0);
}

TEST(StatsTest, MinMaxNormalizeConstantIsHalf)
{
    const std::vector<double> n = minMaxNormalize({4.0, 4.0, 4.0});
    for (double v : n)
        EXPECT_DOUBLE_EQ(v, 0.5);
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

TEST(StatsTest, ErrorMetrics)
{
    const std::vector<double> a{1.0, 2.0, 3.0};
    const std::vector<double> b{2.0, 2.0, 1.0};
    EXPECT_DOUBLE_EQ(meanAbsoluteError(a, b), 1.0);
    EXPECT_NEAR(rootMeanSquaredError(a, b), std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_DOUBLE_EQ(meanAbsoluteError(a, a), 0.0);
}

// ------------------------------------------------------------------ Chi2

TEST(Chi2Test, RegularizedGammaBoundaries)
{
    EXPECT_DOUBLE_EQ(regularizedLowerGamma(1.0, 0.0), 0.0);
    EXPECT_NEAR(regularizedLowerGamma(1.0, 1.0), 1.0 - std::exp(-1.0),
                1e-10);
    EXPECT_NEAR(regularizedLowerGamma(0.5, 100.0), 1.0, 1e-9);
}

TEST(Chi2Test, ChiSquareCdfKnownValues)
{
    // chi2 with 2 dof is Exp(1/2): CDF(x) = 1 - exp(-x/2).
    for (double x : {0.5, 1.0, 2.0, 5.0}) {
        EXPECT_NEAR(chiSquareCdf(x, 2.0), 1.0 - std::exp(-x / 2.0),
                    1e-9);
    }
    // Median of chi2(1) is about 0.4549.
    EXPECT_NEAR(chiSquareCdf(0.4549, 1.0), 0.5, 1e-3);
}

TEST(Chi2Test, StatisticZeroForPerfectMatch)
{
    const std::vector<double> obs{5.0, 10.0, 15.0};
    EXPECT_DOUBLE_EQ(pearsonChiSquareStatistic(obs, obs), 0.0);
}

TEST(Chi2Test, StatisticGrowsWithMismatch)
{
    const std::vector<double> expected{10.0, 10.0, 10.0};
    const double small = pearsonChiSquareStatistic(
        {11.0, 9.0, 10.0}, expected);
    const double large = pearsonChiSquareStatistic(
        {20.0, 2.0, 8.0}, expected);
    EXPECT_LT(small, large);
}

TEST(Chi2Test, GoodFitHasHighConfidence)
{
    std::vector<double> expected, observed;
    for (int i = 0; i < 30; ++i) {
        expected.push_back(20.0 + i);
        observed.push_back(20.0 + i + ((i % 2 == 0) ? 0.5 : -0.5));
    }
    const GoodnessOfFit fit =
        chiSquareGoodnessOfFit(observed, expected, 3);
    EXPECT_GT(fit.confidence, 0.95);
}

TEST(Chi2Test, BadFitHasLowConfidence)
{
    std::vector<double> expected, observed;
    for (int i = 0; i < 30; ++i) {
        expected.push_back(20.0);
        observed.push_back((i % 2 == 0) ? 5.0 : 40.0);
    }
    const GoodnessOfFit fit =
        chiSquareGoodnessOfFit(observed, expected, 3);
    EXPECT_LT(fit.confidence, 0.01);
}

} // namespace
