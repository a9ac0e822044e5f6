/**
 * @file
 * Tests for the batched SoA forecasting engine: the ForecastPool and
 * its block kernels against the scalar FftPredictor golden reference.
 *
 * The central contract is bitwise: every forecast value the pool
 * produces must match FftPredictor::forecastHorizon bit for bit,
 * across power-of-two, Bluestein and odd window lengths, during
 * warm-up (kernels at n = sample count) and steady state, for any
 * thread count.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/executor.hh"
#include "math/fft.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/forecast_kernels.hh"
#include "predictors/forecast_pool.hh"

namespace
{

using namespace iceb;
using namespace iceb::predictors;

std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

/**
 * Deterministic synthetic workload: periodic structure plus a
 * hash-scrambled irregular component, distinct per function. Always
 * non-negative; occasionally exactly zero (exercising the predictor's
 * max(0,.) clamp inputs without silencing whole windows).
 */
double
signalAt(std::size_t fn, std::size_t t)
{
    const double phase = static_cast<double>(fn % 17) * 0.37;
    double v = 4.0 + 3.0 * std::sin(0.23 * static_cast<double>(t) + phase) +
        1.5 * std::cos(0.071 * static_cast<double>(t));
    std::uint64_t h = (fn + 1) * 0x9e3779b97f4a7c15ull + t * 0xbf58476d1ce4e5b9ull;
    h ^= h >> 29;
    h *= 0x94d049bb133111ebull;
    h ^= h >> 32;
    v += static_cast<double>(h % 1000) / 250.0;
    if (h % 13 == 0)
        return 0.0;
    return v;
}

void
expectHorizonBitsEqual(const double *pool_out,
                       const std::vector<double> &scalar_out,
                       std::size_t fn, std::size_t t)
{
    for (std::size_t step = 0; step < scalar_out.size(); ++step) {
        ASSERT_EQ(bits(pool_out[step]), bits(scalar_out[step]))
            << "fn=" << fn << " t=" << t << " step=" << step
            << " pool=" << pool_out[step]
            << " scalar=" << scalar_out[step];
    }
}

/**
 * Roll `intervals` observation/forecast rounds over `functions`
 * functions with the given config, asserting the pool matches the
 * scalar predictor bit for bit at every round (including warm-up,
 * where lanes are fitted at n = their sample count).
 */
void
rollAndCompare(const FftPredictorConfig &config, std::size_t functions,
               std::size_t intervals, std::size_t horizon,
               std::size_t threads = 1)
{
    ForecastPoolOptions opts;
    opts.threads = threads;
    ForecastPool pool(opts);
    std::vector<FftPredictor> scalar;
    scalar.reserve(functions);
    for (std::size_t fn = 0; fn < functions; ++fn) {
        EXPECT_EQ(pool.addFunction(config), fn);
        scalar.emplace_back(config);
    }

    std::vector<double> golden;
    for (std::size_t t = 0; t < intervals; ++t) {
        for (std::size_t fn = 0; fn < functions; ++fn) {
            const double v = signalAt(fn, t);
            pool.observe(fn, v);
            scalar[fn].observe(v);
        }
        pool.forecastAll(horizon);
        for (std::size_t fn = 0; fn < functions; ++fn) {
            scalar[fn].forecastHorizon(horizon, golden);
            expectHorizonBitsEqual(pool.forecast(fn), golden, fn, t);
        }
    }
}

// --------------------------------------------------- exact equivalence

TEST(ForecastPoolTest, BitIdenticalPow2Windows)
{
    for (const std::size_t window : {8u, 16u, 32u, 64u, 128u}) {
        FftPredictorConfig config;
        config.window = window;
        // Cover warm-up, the first full window, and ring wrap-around.
        rollAndCompare(config, 5, window + window / 2 + 3, 11);
    }
}

TEST(ForecastPoolTest, BitIdenticalBluesteinWindows)
{
    for (const std::size_t window : {12u, 24u, 60u, 120u}) {
        FftPredictorConfig config;
        config.window = window;
        rollAndCompare(config, 5, window + window / 2 + 3, 11);
    }
}

TEST(ForecastPoolTest, BitIdenticalOddWindows)
{
    // Odd lengths take forwardReal's full-complex fallback; warm-up
    // also fits the odd counts 9, 11, 13, ... below each window.
    for (const std::size_t window : {9u, 15u, 21u}) {
        FftPredictorConfig config;
        config.window = window;
        rollAndCompare(config, 4, 2 * window + 3, 7);
    }
}

TEST(ForecastPoolDeathTest, RejectsMinSamplesBelowKernelMinimum)
{
    // Every fitted lane runs the kernels, whose shortest fit is 8.
    FftPredictorConfig config;
    config.window = 16;
    config.min_samples = 7;
    ForecastPool pool;
    EXPECT_DEATH(pool.addFunction(config), "min_samples");
}

TEST(ForecastPoolDeathTest, RejectsASecondConfig)
{
    // The first addFunction fixes the pool's one config.
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    pool.addFunction(config);
    FftPredictorConfig other = config;
    other.harmonics = 3;
    EXPECT_DEATH(pool.addFunction(other), "one FIP config");
}

TEST(ForecastPoolDeathTest, RejectsForecastOfFunctionAddedAfterForecastAll)
{
    // The last forecastAll holds results for the functions present
    // then; a later arrival has none until the next one.
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    pool.addFunction(config);
    pool.forecastAll(4);
    const std::size_t late = pool.addFunction(config);
    EXPECT_DEATH(pool.forecast(late), "added after forecastAll");
}

TEST(ForecastPoolTest, BitIdenticalMoreLanesThanOneBlock)
{
    // > kLanes functions forces multiple blocks incl. a partial tail.
    FftPredictorConfig config;
    config.window = 16;
    rollAndCompare(config, kernels::kLanes * 2 + 3, 40, 11);
}

TEST(ForecastPoolTest, SilentFunctionForecastsZeros)
{
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    const std::size_t slot = pool.addFunction(config);
    for (std::size_t t = 0; t < 40; ++t)
        pool.observe(slot, 0.0);
    pool.forecastAll(6);
    for (std::size_t step = 0; step < 6; ++step)
        EXPECT_EQ(bits(pool.forecast(slot)[step]), bits(0.0));
}

// ------------------------------------------------------------ threads

/**
 * Observe and forecast 37 functions (5 blocks) for 90 rounds on a
 * pool of forecast width @p threads; returns the final forecasts.
 */
std::vector<double>
rollThreaded(std::size_t threads)
{
    FftPredictorConfig config;
    config.window = 60;
    const std::size_t functions = 37;
    const std::size_t horizon = 11;

    ForecastPoolOptions opts;
    opts.threads = threads;
    ForecastPool pool(opts);
    for (std::size_t fn = 0; fn < functions; ++fn)
        pool.addFunction(config);
    std::vector<double> out;
    for (std::size_t t = 0; t < 90; ++t) {
        for (std::size_t fn = 0; fn < functions; ++fn)
            pool.observe(fn, signalAt(fn, t));
        pool.forecastAll(horizon);
    }
    for (std::size_t fn = 0; fn < functions; ++fn)
        out.insert(out.end(), pool.forecast(fn),
                   pool.forecast(fn) + horizon);
    return out;
}

void
expectSameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(bits(a[i]), bits(b[i])) << "i=" << i;
}

TEST(ForecastPoolTest, ThreadCountDoesNotChangeBits)
{
    const std::vector<double> one = rollThreaded(1);
    expectSameBits(one, rollThreaded(4));
    // 0 means the hardware thread count.
    expectSameBits(one, rollThreaded(0));
}

TEST(ForecastPoolTest, NestedForecastMatchesInline)
{
    // Issued from inside an executor task, as IceBreaker's forecast is
    // inside a runner grid: the other outer task returns at once, so
    // its worker is parked and claims participants of the nested
    // forecastAll calls.
    const std::vector<double> inline_bits = rollThreaded(1);
    std::vector<double> nested_bits;
    TaskExecutor::shared().run(2, 2, [&](std::size_t i) {
        if (i == 0)
            nested_bits = rollThreaded(4);
    });
    expectSameBits(inline_bits, nested_bits);
}

TEST(ForecastPoolTest, ThreadedExactModeMatchesScalar)
{
    FftPredictorConfig config;
    config.window = 120;
    rollAndCompare(config, 2 * kernels::kLanes + 1, 140, 11,
                   /*threads=*/4);
}

TEST(ForecastPoolTest, StaggeredArrivalsMatchScalarAtAnyWidth)
{
    // Two functions arrive every third round, so each 8-lane block
    // spans four arrival rounds: one forecastAll holds several sample
    // counts across blocks and within each (some below min_samples),
    // and concurrent blocks read several per-length caches.
    FftPredictorConfig config;
    config.window = 60;
    const std::size_t functions = 3 * kernels::kLanes + 4;
    const std::size_t last_arrival = 3 * (functions / 2 - 1);
    const std::size_t horizon = 11;
    for (const std::size_t threads : {1u, 4u}) {
        ForecastPoolOptions opts;
        opts.threads = threads;
        ForecastPool pool(opts);
        std::vector<FftPredictor> scalar;
        scalar.reserve(functions);
        std::vector<double> golden;
        for (std::size_t t = 0; t <= last_arrival + config.window + 5;
             ++t) {
            for (std::size_t k = 0;
                 k < 2 && t % 3 == 0 && scalar.size() < functions; ++k) {
                EXPECT_EQ(pool.addFunction(config), scalar.size());
                scalar.emplace_back(config);
            }
            for (std::size_t fn = 0; fn < scalar.size(); ++fn) {
                const double v = signalAt(fn, t);
                pool.observe(fn, v);
                scalar[fn].observe(v);
            }
            pool.forecastAll(horizon);
            for (std::size_t fn = 0; fn < scalar.size(); ++fn) {
                scalar[fn].forecastHorizon(horizon, golden);
                expectHorizonBitsEqual(pool.forecast(fn), golden, fn, t);
            }
        }
        EXPECT_EQ(scalar.size(), functions);
    }
}

// ------------------------------------------------------- FFT kernels

TEST(ForecastKernelsTest, ForwardRealBatchMatchesPlanBitwise)
{
    using kernels::kLanes;
    // Warm-up sends every count from min_samples (8) to the window
    // through the batch FFT, so cover each length up to 128.
    for (std::size_t n = 8; n <= 128; ++n) {
        const auto plan = math::fftPlanFor(n);
        std::vector<double> in(n * kLanes);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t l = 0; l < kLanes; ++l)
                in[i * kLanes + l] =
                    signalAt(l, i) - 3.0 * std::sin(0.01 * i);

        kernels::BlockContext ctx;
        ctx.plan = plan.get();
        ctx.window = n;
        kernels::BlockScratch scratch;
        scratch.prepare(ctx);
        std::vector<double> out_re((n / 2 + 1) * kLanes);
        std::vector<double> out_im((n / 2 + 1) * kLanes);
        kernels::forwardRealBatch(*plan, in.data(), out_re.data(),
                                  out_im.data(), scratch);

        std::vector<double> lane(n);
        std::vector<math::Complex> spectrum(n);
        math::FftScratch fft_ws;
        for (std::size_t l = 0; l < kLanes; ++l) {
            for (std::size_t i = 0; i < n; ++i)
                lane[i] = in[i * kLanes + l];
            plan->forwardReal(lane.data(), spectrum.data(), fft_ws);
            for (std::size_t k = 0; k <= n / 2; ++k) {
                ASSERT_EQ(bits(out_re[k * kLanes + l]),
                          bits(spectrum[k].real()))
                    << "n=" << n << " lane=" << l << " bin=" << k;
                ASSERT_EQ(bits(out_im[k * kLanes + l]),
                          bits(spectrum[k].imag()))
                    << "n=" << n << " lane=" << l << " bin=" << k;
            }
        }
    }
}

} // namespace
