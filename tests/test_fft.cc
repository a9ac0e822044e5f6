/**
 * @file
 * Property tests for the FFT and harmonic decomposition: verified
 * against the direct O(n^2) DFT, Parseval's identity, round-trips
 * through the conjugated forward transform, and planted-sinusoid
 * recovery.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "math/fft.hh"
#include "math/harmonics.hh"

namespace
{

using namespace iceb::math;

std::vector<Complex>
randomSignal(std::size_t n, std::uint64_t seed)
{
    iceb::Rng rng(seed);
    std::vector<Complex> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.emplace_back(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    return out;
}

double
maxDiff(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    double out = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        out = std::max(out, std::abs(a[i] - b[i]));
    return out;
}

TEST(FftTest, PowerOfTwoDetection)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_FALSE(isPowerOfTwo(60));
}

TEST(FftTest, DcOnlySignal)
{
    const std::vector<Complex> signal(8, Complex(2.0, 0.0));
    const std::vector<Complex> spectrum = fft(signal);
    EXPECT_NEAR(spectrum[0].real(), 16.0, 1e-12);
    for (std::size_t k = 1; k < 8; ++k)
        EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-12);
}

TEST(FftTest, SingleToneLandsInOneBin)
{
    const std::size_t n = 32;
    std::vector<Complex> signal(n);
    for (std::size_t t = 0; t < n; ++t) {
        const double angle = 2.0 * M_PI * 4.0 * t / n;
        signal[t] = Complex(std::cos(angle), 0.0);
    }
    const std::vector<Complex> spectrum = fft(signal);
    EXPECT_NEAR(std::abs(spectrum[4]), n / 2.0, 1e-9);
    EXPECT_NEAR(std::abs(spectrum[n - 4]), n / 2.0, 1e-9);
    EXPECT_NEAR(std::abs(spectrum[3]), 0.0, 1e-9);
}

/** FFT equals direct DFT for power-of-two and arbitrary lengths. */
class FftLengthTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FftLengthTest, MatchesDirectDft)
{
    const std::size_t n = GetParam();
    const std::vector<Complex> signal = randomSignal(n, 100 + n);
    const std::vector<Complex> fast = fft(signal);
    const std::vector<Complex> direct = dftDirect(signal);
    EXPECT_LT(maxDiff(fast, direct), 1e-8 * static_cast<double>(n));
}

TEST_P(FftLengthTest, InverseRoundTrip)
{
    // The inverse DFT through the forward one, conj(fft(conj(X))) / n,
    // brings the spectrum back to the signal.
    const std::size_t n = GetParam();
    const std::vector<Complex> signal = randomSignal(n, 200 + n);
    std::vector<Complex> spectrum = fft(signal);
    for (Complex &value : spectrum)
        value = std::conj(value);
    std::vector<Complex> back = fft(spectrum);
    for (Complex &value : back)
        value = std::conj(value) / static_cast<double>(n);
    EXPECT_LT(maxDiff(back, signal), 1e-9 * static_cast<double>(n));
}

TEST_P(FftLengthTest, ParsevalIdentityHolds)
{
    const std::size_t n = GetParam();
    const std::vector<Complex> signal = randomSignal(n, 300 + n);
    const std::vector<Complex> spectrum = fft(signal);
    double time_energy = 0.0;
    double freq_energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        time_energy += std::norm(signal[i]);
        freq_energy += std::norm(spectrum[i]);
    }
    EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
                1e-7 * std::max(1.0, time_energy));
}

TEST_P(FftLengthTest, LinearityHolds)
{
    const std::size_t n = GetParam();
    const std::vector<Complex> a = randomSignal(n, 400 + n);
    const std::vector<Complex> b = randomSignal(n, 500 + n);
    std::vector<Complex> sum(n);
    for (std::size_t i = 0; i < n; ++i)
        sum[i] = a[i] + 2.0 * b[i];
    const std::vector<Complex> fa = fft(a);
    const std::vector<Complex> fb = fft(b);
    const std::vector<Complex> fsum = fft(sum);
    std::vector<Complex> expected(n);
    for (std::size_t i = 0; i < n; ++i)
        expected[i] = fa[i] + 2.0 * fb[i];
    EXPECT_LT(maxDiff(fsum, expected), 1e-7 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Lengths, FftLengthTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 16u,
                                           60u, 64u, 100u, 120u, 127u,
                                           128u));

// ------------------------------------------------------------ Harmonics

TEST(HarmonicsTest, SingleSinusoidRecovered)
{
    const std::size_t n = 64;
    std::vector<double> signal(n);
    for (std::size_t t = 0; t < n; ++t)
        signal[t] = 3.0 * std::cos(2.0 * M_PI * 4.0 * t / n + 0.7);
    const std::vector<Harmonic> h = decompose(signal, 3);
    ASSERT_FALSE(h.empty());
    EXPECT_NEAR(h.front().amplitude, 3.0, 1e-9);
    EXPECT_NEAR(h.front().frequency, 4.0 / 64.0, 1e-12);
    EXPECT_NEAR(h.front().phase, 0.7, 1e-9);
}

TEST(HarmonicsTest, ReconstructionMatchesSignal)
{
    const std::size_t n = 48;
    std::vector<double> signal(n);
    for (std::size_t t = 0; t < n; ++t) {
        signal[t] = 2.0 * std::cos(2.0 * M_PI * 3.0 * t / n) +
            1.0 * std::cos(2.0 * M_PI * 8.0 * t / n + 1.1);
    }
    const std::vector<Harmonic> h = decompose(signal, 0);
    for (std::size_t t = 0; t < n; ++t) {
        EXPECT_NEAR(evaluateHarmonics(h, static_cast<double>(t)),
                    signal[t], 1e-8);
    }
}

TEST(HarmonicsTest, AmplitudeOrdering)
{
    const std::size_t n = 64;
    std::vector<double> signal(n);
    for (std::size_t t = 0; t < n; ++t) {
        signal[t] = 1.0 * std::cos(2.0 * M_PI * 2.0 * t / n) +
            5.0 * std::cos(2.0 * M_PI * 7.0 * t / n);
    }
    const std::vector<Harmonic> h = decompose(signal, 2);
    ASSERT_EQ(h.size(), 2u);
    EXPECT_GT(h[0].amplitude, h[1].amplitude);
    EXPECT_NEAR(h[0].frequency, 7.0 / 64.0, 1e-12);
}

TEST(HarmonicsTest, CountSignificantHarmonics)
{
    const std::size_t n = 128;
    std::vector<double> one(n), three(n);
    for (std::size_t t = 0; t < n; ++t) {
        one[t] = std::cos(2.0 * M_PI * 4.0 * t / n);
        three[t] = std::cos(2.0 * M_PI * 4.0 * t / n) +
            0.8 * std::cos(2.0 * M_PI * 9.0 * t / n) +
            0.6 * std::cos(2.0 * M_PI * 17.0 * t / n);
    }
    EXPECT_EQ(countSignificantHarmonics(one, 0.2), 1u);
    EXPECT_EQ(countSignificantHarmonics(three, 0.2), 3u);
}

TEST(HarmonicsTest, FlatSignalHasNoHarmonics)
{
    const std::vector<double> flat(32, 5.0);
    EXPECT_EQ(countSignificantHarmonics(flat), 0u);
    EXPECT_DOUBLE_EQ(dominantPeriod(flat), 0.0);
}

TEST(HarmonicsTest, DominantPeriodDetected)
{
    const std::size_t n = 120;
    std::vector<double> signal(n);
    for (std::size_t t = 0; t < n; ++t)
        signal[t] = std::cos(2.0 * M_PI * t / 24.0); // period 24, 5 cycles
    EXPECT_NEAR(dominantPeriod(signal), 24.0, 0.6);
}

TEST(HarmonicsTest, ExtrapolationPredictsOffGridPeriod)
{
    // Period 17 does not divide the window length 60: the bin-grid
    // decomposition wraps at t = 60, the refined one extrapolates.
    const std::size_t n = 60;
    const double period = 17.0;
    std::vector<double> signal(n);
    for (std::size_t t = 0; t < n; ++t)
        signal[t] = 4.0 * std::cos(2.0 * M_PI * t / period);
    const std::vector<Complex> spectrum = fftReal(signal);
    HarmonicsWorkspace ws;
    ws.magnitude.assign(n / 2 + 1, 0.0);
    for (std::size_t k = 1; k <= n / 2; ++k)
        ws.magnitude[k] = std::abs(spectrum[k]);
    std::vector<Harmonic> refined;
    decomposeFromMagnitudes(signal.data(), n, 5, refined, ws);
    ASSERT_FALSE(refined.empty());
    EXPECT_NEAR(1.0 / refined.front().frequency, period, 1.0);
    // One-step-ahead forecast error should be a fraction of the
    // 4.0 amplitude (the bin-grid variant would be off by up to 2x
    // the amplitude here).
    const double truth = 4.0 * std::cos(2.0 * M_PI * n / period);
    const double forecast =
        evaluateHarmonics(refined, static_cast<double>(n));
    EXPECT_NEAR(forecast, truth, 1.6);
}

// ------------------------------------------------------- FftPlan cache

TEST(FftPlanTest, GoldenBitIdenticalToFreshTransforms)
{
    // The plan precomputes exactly what the fresh code recomputes per
    // call (same twiddle recurrences, same chirp expressions, same
    // operation order), so plan transforms must match fft() bit for
    // bit -- not merely within a tolerance. Lengths 1..64 cover the
    // radix-2 path, the Bluestein path, and every convolution length
    // the latter picks in between.
    FftScratch scratch; // shared across lengths: reuse must not leak
    for (std::size_t n = 1; n <= 64; ++n) {
        const std::vector<Complex> signal =
            randomSignal(n, 0xfeed0000 + n);
        const auto plan = fftPlanFor(n);
        ASSERT_EQ(plan->size(), n);

        const std::vector<Complex> fresh_fwd = fft(signal);
        std::vector<Complex> plan_fwd(n);
        plan->forward(signal.data(), plan_fwd.data(), scratch);
        for (std::size_t i = 0; i < n; ++i) {
            EXPECT_EQ(plan_fwd[i].real(), fresh_fwd[i].real())
                << "n=" << n << " bin=" << i;
            EXPECT_EQ(plan_fwd[i].imag(), fresh_fwd[i].imag())
                << "n=" << n << " bin=" << i;
        }
    }
}

TEST(FftPlanTest, CacheReturnsSameInstance)
{
    const auto a = fftPlanFor(120);
    const auto b = fftPlanFor(120);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_NE(a.get(), fftPlanFor(64).get());
}

TEST(FftPlanTest, RealForwardMatchesDirectDft)
{
    // The packed real-input path (even n) and the complex fallback
    // (odd n) must both agree with the O(n^2) definition.
    FftScratch scratch;
    for (const std::size_t n : {8u, 59u, 60u, 64u, 120u}) {
        iceb::Rng rng(0xbeef0000 + n);
        std::vector<double> real_signal(n);
        std::vector<Complex> as_complex(n);
        for (std::size_t i = 0; i < n; ++i) {
            real_signal[i] = rng.uniform(-5.0, 5.0);
            as_complex[i] = Complex(real_signal[i], 0.0);
        }
        const std::vector<Complex> expected = dftDirect(as_complex);
        std::vector<Complex> actual(n);
        fftPlanFor(n)->forwardReal(real_signal.data(), actual.data(),
                                   scratch);
        EXPECT_LT(maxDiff(actual, expected), 1e-9) << "n=" << n;

        // The fftReal() convenience wrapper routes through the same
        // plan path.
        EXPECT_LT(maxDiff(fftReal(real_signal), expected), 1e-9)
            << "n=" << n;
    }
}

} // namespace
