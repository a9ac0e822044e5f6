/**
 * @file
 * Tests for the batched SoA forecasting engine: the ForecastPool and
 * its block kernels against the FIP composed from math's scalar
 * stages (stage_reference.hh).
 *
 * The central contract is bitwise: every forecast value the pool
 * produces must match the stage reference bit for bit, across
 * power-of-two, Bluestein and odd window lengths up to 720, during
 * warm-up (kernels at n = sample count) and steady state, on
 * generated trace histories whose windows fall silent and wake, for
 * any thread count, and with pools of other configs sharing the
 * thread's block scratch. The kernels' lane-batched harmonic fit is
 * pinned to math::decomposeFromMagnitudes lane by lane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/executor.hh"
#include "math/fft.hh"
#include "math/harmonics.hh"
#include "predictors/forecast_kernels.hh"
#include "predictors/forecast_pool.hh"
#include "stage_reference.hh"
#include "trace/synthetic.hh"

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
                       const std::vector<double> &reference,
                       std::size_t fn, std::size_t t)
{
    for (std::size_t step = 0; step < reference.size(); ++step) {
        ASSERT_EQ(bits(pool_out[step]), bits(reference[step]))
            << "fn=" << fn << " t=" << t << " step=" << step
            << " pool=" << pool_out[step]
            << " reference=" << reference[step];
    }
}

/**
 * A pool of `functions` functions with the given config, rolled over
 * signalAt one round at a time alongside one stage reference per
 * function.
 */
class ReferencedPool
{
  public:
    ReferencedPool(const FftPredictorConfig &config, std::size_t functions,
                   std::size_t threads = 1)
        : pool_(ForecastPoolOptions{threads})
    {
        for (std::size_t fn = 0; fn < functions; ++fn) {
            EXPECT_EQ(pool_.addFunction(config), fn);
            reference_.emplace_back(config);
        }
    }

    /**
     * Observe round @p t and forecast @p horizon steps, asserting
     * every function's forecast equals its reference bit for bit.
     */
    void roll(std::size_t t, std::size_t horizon)
    {
        for (std::size_t fn = 0; fn < reference_.size(); ++fn) {
            const double v = signalAt(fn, t);
            pool_.observe(fn, v);
            reference_[fn].observe(v);
        }
        pool_.forecastAll(horizon);
        for (std::size_t fn = 0; fn < reference_.size(); ++fn) {
            reference_[fn].forecastHorizon(horizon, golden_);
            expectHorizonBitsEqual(pool_.forecast(fn), golden_, fn, t);
        }
    }

  private:
    ForecastPool pool_;
    std::vector<stage::Reference> reference_;
    std::vector<double> golden_;
};

/**
 * Roll `intervals` observation/forecast rounds over `functions`
 * functions with the given config, asserting the pool matches the
 * stage reference bit for bit at every round (including warm-up,
 * where lanes are fitted at n = their sample count).
 */
void
rollAndCompare(const FftPredictorConfig &config, std::size_t functions,
               std::size_t intervals, std::size_t horizon,
               std::size_t threads = 1)
{
    ReferencedPool pool(config, functions, threads);
    for (std::size_t t = 0; t < intervals; ++t) {
        pool.roll(t, horizon);
        if (::testing::Test::HasFatalFailure())
            return;
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

TEST(ForecastPoolTest, BitIdenticalLongWindows)
{
    // The windows fig10 runs (240, 480) and longer: warm-up fits every
    // length up to 720, and refined peaks sit closer together than a
    // window of 128 allows.
    for (const std::size_t window : {240u, 480u, 720u}) {
        FftPredictorConfig config;
        config.window = window;
        rollAndCompare(config, 3, window + window / 4 + 3, 11);
        ASSERT_FALSE(HasFatalFailure()) << "window=" << window;
    }
}

TEST(ForecastPoolTest, PoolsOfOtherConfigsShareThreadScratch)
{
    // Pools of three configs forecast in turn on this thread, so each
    // block starts from block scratch that the previous pool's blocks
    // sized and filled for another window, harmonic count or trend
    // degree. No forecast may depend on it.
    FftPredictorConfig short_few;
    short_few.window = 60;
    short_few.harmonics = 3;
    FftPredictorConfig linear;
    linear.window = 30;
    linear.poly_degree = 1;
    std::vector<ReferencedPool> pools;
    pools.emplace_back(short_few, kernels::kLanes + 3);
    pools.emplace_back(FftPredictorConfig{}, kernels::kLanes + 5);
    pools.emplace_back(linear, 5);
    for (std::size_t t = 0; t < 150; ++t) {
        for (ReferencedPool &pool : pools) {
            pool.roll(t, 11);
            ASSERT_FALSE(HasFatalFailure()) << "t=" << t;
        }
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

TEST(ForecastPoolDeathTest, RejectsAddFunctionAfterFirstObserve)
{
    // Every lane advances in lockstep from the first interval on, so
    // the fleet is fixed before anything is observed or forecast.
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool observed;
    observed.addFunction(config);
    observed.addFunction(config);
    observed.observe(0, 1.0);
    EXPECT_DEATH(observed.addFunction(config), "addFunction after");
    ForecastPool forecast;
    forecast.addFunction(config);
    forecast.forecastAll(4);
    EXPECT_DEATH(forecast.addFunction(config), "addFunction after");
}

TEST(ForecastPoolDeathTest, RejectsObserveOutOfLaneOrder)
{
    // One interval names lanes 0..L-1 in order, once each.
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    for (int fn = 0; fn < 3; ++fn)
        pool.addFunction(config);
    EXPECT_DEATH(pool.observe(1, 1.0), "in order");
    pool.observe(0, 1.0);
    EXPECT_DEATH(pool.observe(0, 1.0), "in order");
    EXPECT_DEATH(pool.observe(2, 1.0), "in order");
}

TEST(ForecastPoolDeathTest, RejectsForecastAllInsideAnInterval)
{
    // forecastAll runs between intervals, when every lane has seen
    // the same number of samples.
    FftPredictorConfig config;
    config.window = 16;
    ForecastPool pool;
    for (int fn = 0; fn < 3; ++fn)
        pool.addFunction(config);
    for (int fn = 0; fn < 3; ++fn)
        pool.observe(fn, 1.0);
    pool.observe(0, 1.0);
    EXPECT_DEATH(pool.forecastAll(4), "inside an interval");
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

/** What a generated-trace roll exercised, beyond bit-identity. */
struct RollCoverage
{
    std::size_t resilenced = 0;     //!< lane-intervals that fell silent
    std::size_t partial_blocks = 0; //!< intervals with a partial block
};

/**
 * Roll every history of @p trace through pools of forecast width 1
 * and 4 and through one stage reference per function, asserting
 * bit-identical horizons from both pools at every interval.
 */
RollCoverage
rollTraceAndCompare(const trace::Trace &trace)
{
    const FftPredictorConfig config; // IceBreaker's FIP
    const std::size_t horizon = 11;
    const std::size_t functions = trace.numFunctions();
    std::vector<ForecastPool> pools;
    for (const std::size_t threads : {1u, 4u}) {
        ForecastPoolOptions opts;
        opts.threads = threads;
        pools.emplace_back(opts);
    }
    std::vector<stage::Reference> reference;
    for (std::size_t fn = 0; fn < functions; ++fn) {
        for (ForecastPool &pool : pools)
            pool.addFunction(config);
        reference.emplace_back(config);
    }

    // Interval of each function's last non-zero sample, to tell which
    // windows are silent (none within the last `window` intervals).
    constexpr std::size_t kNever = ~std::size_t{0};
    std::vector<std::size_t> last_active(functions, kNever);
    std::vector<bool> was_silent(functions, true);
    RollCoverage coverage;
    std::vector<double> golden;
    for (std::size_t t = 0; t < trace.numIntervals(); ++t) {
        std::size_t fitted = 0;
        for (std::size_t fn = 0; fn < functions; ++fn) {
            const double v = trace.functions()[fn].concurrency[t];
            for (ForecastPool &pool : pools)
                pool.observe(fn, v);
            reference[fn].observe(v);
            if (v != 0.0)
                last_active[fn] = t;
            const bool silent = last_active[fn] == kNever ||
                t - last_active[fn] >= config.window;
            coverage.resilenced += silent && !was_silent[fn];
            was_silent[fn] = silent;
            fitted += !silent && t + 1 >= config.min_samples;
        }
        coverage.partial_blocks += fitted % kernels::kLanes != 0;

        for (ForecastPool &pool : pools)
            pool.forecastAll(horizon);
        for (std::size_t fn = 0; fn < functions; ++fn) {
            reference[fn].forecastHorizon(horizon, golden);
            for (const ForecastPool &pool : pools) {
                expectHorizonBitsEqual(pool.forecast(fn), golden, fn, t);
                if (::testing::Test::HasFatalFailure())
                    return coverage;
            }
        }
    }
    return coverage;
}

TEST(ForecastPoolTest, GeneratorHistoriesMatchScalarAtAnyWidth)
{
    // Real history shapes rather than signalAt's dense sums: fig6's
    // generator config (fewer functions and intervals; 45 leaves a
    // partial last block) and the sparse Azure-shaped preset, whose
    // lanes go silent again once their last spike leaves the window,
    // so each interval packs a different set of lanes into blocks.
    trace::SyntheticConfig fig6;
    fig6.num_functions = 45;
    fig6.num_intervals = 260;
    fig6.min_memory_mb = 256;
    const trace::Trace shapes[] = {
        trace::SyntheticTraceGenerator(fig6).generate(),
        trace::SyntheticTraceGenerator(trace::azureScaleConfig(64, 240))
            .generate(),
    };
    std::size_t resilenced = 0;
    for (const trace::Trace &trace : shapes) {
        const RollCoverage coverage = rollTraceAndCompare(trace);
        ASSERT_FALSE(HasFatalFailure())
            << trace.numFunctions() << " functions";
        EXPECT_GT(coverage.partial_blocks, 0u);
        resilenced += coverage.resilenced;
    }
    EXPECT_GT(resilenced, 0u);
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

// ------------------------------------------------ batched harmonic fit

/** One lane of a fit block: a residual and the magnitudes fitted. */
struct FitLane
{
    std::vector<double> resid;
    std::vector<double> magnitude; //!< bins 0..n/2, DC ignored
};

/** Bin magnitudes of @p series, as the stage reference computes them. */
std::vector<double>
magnitudesOf(const std::vector<double> &series)
{
    const std::size_t n = series.size();
    std::vector<math::Complex> spectrum(n);
    math::FftScratch fft_ws;
    math::fftPlanFor(n)->forwardReal(series.data(), spectrum.data(), fft_ws);
    std::vector<double> magnitude(n / 2 + 1, 0.0);
    for (std::size_t k = 1; k <= n / 2; ++k)
        magnitude[k] = std::abs(spectrum[k]);
    return magnitude;
}

/** A lane whose magnitudes are its residual's own. */
FitLane
spectrumLane(std::vector<double> resid)
{
    FitLane lane;
    lane.magnitude = magnitudesOf(resid);
    lane.resid = std::move(resid);
    return lane;
}

/**
 * Cosines at the exact bins 1, 3, 5, ...: no leakage, so their
 * magnitudes hold exactly @p count spectral peaks (the rest is
 * roundoff far below the 1e-12 peak floor).
 */
std::vector<double>
binCosines(std::size_t n, std::size_t count, std::size_t salt)
{
    std::vector<double> resid(n, 0.0);
    for (std::size_t c = 0; c < count; ++c) {
        const double amp = 0.2 + 0.15 * static_cast<double>((c + salt) % 6);
        const double w = 2.0 * M_PI * static_cast<double>(2 * c + 1) /
            static_cast<double>(n);
        for (std::size_t t = 0; t < n; ++t)
            resid[t] += amp *
                std::cos(w * static_cast<double>(t) +
                         0.3 * static_cast<double>(c + salt));
    }
    return resid;
}

/** A sparse spiky window, detrended by its mean: many leaky peaks. */
std::vector<double>
spikyResidual(std::size_t n, std::size_t salt)
{
    std::vector<double> resid(n, 0.0);
    for (std::size_t t = salt % 5; t < n; t += 7 + salt % 4)
        resid[t] = 1.0 + static_cast<double>((t + salt) % 3);
    double mean = 0.0;
    for (const double v : resid)
        mean += v;
    mean /= static_cast<double>(n);
    for (double &v : resid)
        v -= mean;
    return resid;
}

/**
 * Fit @p lanes through kernels::fitHarmonicsBatch as one block (a
 * column past lanes.size() holds junk the fit must ignore), then
 * check every lane's harmonics bit for bit against
 * math::decomposeFromMagnitudes on the same residual and magnitudes.
 * Returns the scalar reference per lane.
 */
std::vector<std::vector<math::Harmonic>>
fitBlockAndCompare(std::size_t n, const std::vector<FitLane> &lanes)
{
    using kernels::kLanes;
    const std::size_t max_components = 10;
    const auto plan = math::fftPlanFor(n);
    kernels::BlockContext ctx;
    ctx.plan = plan.get();
    ctx.window = n;
    ctx.harmonics = max_components;
    kernels::BlockScratch scratch;
    scratch.prepare(ctx);

    std::vector<double> resid(n * kLanes);
    std::vector<double> magnitude((n / 2 + 1) * kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
        for (std::size_t i = 0; i < n; ++i)
            resid[i * kLanes + l] =
                l < lanes.size() ? lanes[l].resid[i] : signalAt(l, i);
        for (std::size_t k = 0; k <= n / 2; ++k)
            magnitude[k * kLanes + l] =
                l < lanes.size() ? lanes[l].magnitude[k] : 1.0;
    }
    kernels::fitHarmonicsBatch(ctx, lanes.size(), resid.data(),
                               magnitude.data(), scratch);

    std::vector<std::vector<math::Harmonic>> reference(lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        math::HarmonicsWorkspace ws;
        ws.magnitude = lanes[l].magnitude;
        math::decomposeFromMagnitudes(lanes[l].resid.data(), n,
                                      max_components, reference[l], ws);
        const std::vector<math::Harmonic> &batch = scratch.harm[l];
        EXPECT_EQ(batch.size(), reference[l].size())
            << "n=" << n << " lane=" << l;
        for (std::size_t h = 0;
             h < std::min(batch.size(), reference[l].size()); ++h) {
            EXPECT_EQ(bits(batch[h].amplitude), bits(reference[l][h].amplitude))
                << "n=" << n << " lane=" << l << " harmonic=" << h;
            EXPECT_EQ(bits(batch[h].frequency), bits(reference[l][h].frequency))
                << "n=" << n << " lane=" << l << " harmonic=" << h;
            EXPECT_EQ(bits(batch[h].phase), bits(reference[l][h].phase))
                << "n=" << n << " lane=" << l << " harmonic=" << h;
        }
    }
    return reference;
}

TEST(ForecastKernelsTest, LaneBatchedFitMatchesScalarBitwise)
{
    for (const std::size_t n : {8u, 9u, 64u, 120u, 128u}) {
        const std::size_t half = n / 2;
        const std::size_t most = (half + 1) / 2; // bins 1, 3, 5, ...

        // Mixed peak counts m = 1..8 (as many as n has room for), so
        // every lane but the largest is padded.
        std::vector<FitLane> mixed;
        std::vector<std::size_t> want;
        for (const std::size_t m : {3u, 1u, 8u, 2u, 7u, 4u, 6u, 5u}) {
            want.push_back(std::min<std::size_t>(m, most));
            mixed.push_back(spectrumLane(binCosines(n, want.back(), m)));
        }
        const auto mixed_ref = fitBlockAndCompare(n, mixed);
        for (std::size_t l = 0; l < mixed.size(); ++l)
            EXPECT_EQ(mixed_ref[l].size(), want[l]) << "n=" << n;

        std::vector<FitLane> special;
        // 0: an exact Nyquist peak at even n (f = 1/2, so D(2w) is a
        // direct sum).
        std::vector<double> nyquist = binCosines(n, 1, 4);
        if (n % 2 == 0)
            for (std::size_t t = 0; t < n; ++t)
                nyquist[t] += t % 2 == 0 ? 1.5 : -1.5;
        special.push_back(spectrumLane(nyquist));
        // 1: a flat top: equal magnitudes at bins b, b+1 both refine
        // onto (b + 1/2) / n, so D(w_i - w_j) is a direct sum.
        const std::size_t b = std::max<std::size_t>(2, half / 2);
        std::vector<double> flat(n);
        for (std::size_t t = 0; t < n; ++t)
            flat[t] = std::cos(2.0 * M_PI * (static_cast<double>(b) + 0.5) *
                               static_cast<double>(t) /
                               static_cast<double>(n));
        special.push_back(spectrumLane(flat));
        special.back().magnitude[b + 1] = special.back().magnitude[b];
        // 2: a singular system: a -1e-12 magnitude beside the peak at
        // bin 3 makes its log-refinement 0/0, so its normal matrix is
        // NaN and the lane falls back to decompose().
        special.push_back(spectrumLane(binCosines(n, 2, 1)));
        special.back().magnitude[2] = -1e-12;
        // 3-6: spiky windows (m = 10 where n allows), one cosine, and a
        // zero residual (no peaks at all); column 7 is not a lane.
        special.push_back(spectrumLane(spikyResidual(n, 1)));
        special.push_back(spectrumLane(binCosines(n, 1, 2)));
        special.push_back(spectrumLane(std::vector<double>(n, 0.0)));
        special.push_back(spectrumLane(spikyResidual(n, 6)));
        const auto special_ref = fitBlockAndCompare(n, special);

        if (n % 2 == 0) {
            bool has_nyquist = false;
            for (const math::Harmonic &h : special_ref[0])
                has_nyquist = has_nyquist || h.frequency == 0.5;
            EXPECT_TRUE(has_nyquist) << "n=" << n;
        }
        std::size_t coincident = 0;
        for (const math::Harmonic &h : special_ref[1])
            coincident += h.frequency == (static_cast<double>(b) + 0.5) /
                static_cast<double>(n);
        EXPECT_EQ(coincident, 2u) << "n=" << n;
        const std::vector<math::Harmonic> fallback =
            math::decompose(special[2].resid, 10);
        ASSERT_EQ(special_ref[2].size(), fallback.size()) << "n=" << n;
        for (std::size_t h = 0; h < fallback.size(); ++h) {
            EXPECT_EQ(bits(special_ref[2][h].amplitude),
                      bits(fallback[h].amplitude));
            EXPECT_EQ(bits(special_ref[2][h].phase), bits(fallback[h].phase));
        }
        EXPECT_TRUE(special_ref[5].empty()) << "n=" << n;
    }
}

} // namespace
