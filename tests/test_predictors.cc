/**
 * @file
 * Tests for the predictor zoo: the FFT-based FIP, ARIMA, the hybrid
 * histogram, the LSTM, and the Tn/Fp prediction tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <bit>
#include <cstdint>
#include <utility>

#include "predictors/arima.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/hybrid_histogram.hh"
#include "predictors/lstm.hh"
#include "predictors/prediction_tracker.hh"
#include "seed_predictor.hh"
#include "stage_reference.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace iceb::predictors;

/** Feed a whole series; return one-step forecasts from step `skip`. */
std::vector<double>
rollingForecast(Predictor &predictor, const std::vector<double> &series,
                std::size_t skip)
{
    std::vector<double> forecasts;
    for (std::size_t t = 0; t < series.size(); ++t) {
        predictor.observe(series[t]);
        if (t + 1 < series.size() && t + 1 >= skip)
            forecasts.push_back(predictor.predictNext());
    }
    return forecasts;
}

double
maeAgainst(const std::vector<double> &series, std::size_t skip,
           const std::vector<double> &forecasts)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < forecasts.size(); ++i)
        acc += std::fabs(forecasts[i] - series[skip + i]);
    return acc / static_cast<double>(forecasts.size());
}

// ------------------------------------------------------------------ FIP

TEST(FftPredictorTest, EmptyPredictsZero)
{
    FftPredictor p;
    EXPECT_DOUBLE_EQ(p.predictNext(), 0.0);
}

TEST(FftPredictorTest, SilentWindowPredictsZero)
{
    FftPredictor p;
    for (int i = 0; i < 50; ++i)
        p.observe(0.0);
    EXPECT_DOUBLE_EQ(p.predictNext(), 0.0);
}

TEST(FftPredictorTest, ConstantSignalPredictsConstant)
{
    FftPredictor p;
    for (int i = 0; i < 80; ++i)
        p.observe(5.0);
    EXPECT_NEAR(p.predictNext(), 5.0, 0.3);
}

TEST(FftPredictorTest, TracksSinusoid)
{
    FftPredictorConfig config;
    config.window = 120;
    FftPredictor p(config);
    std::vector<double> series;
    for (int t = 0; t < 240; ++t)
        series.push_back(5.0 + 3.0 * std::cos(2.0 * M_PI * t / 24.0));
    const std::vector<double> forecasts =
        rollingForecast(p, series, 120);
    EXPECT_LT(maeAgainst(series, 120, forecasts), 0.8);
}

TEST(FftPredictorTest, TracksLinearTrend)
{
    FftPredictor p;
    std::vector<double> series;
    for (int t = 0; t < 200; ++t)
        series.push_back(1.0 + 0.1 * t);
    const std::vector<double> forecasts =
        rollingForecast(p, series, 130);
    EXPECT_LT(maeAgainst(series, 130, forecasts), 0.5);
}

TEST(FftPredictorTest, NeverNegative)
{
    FftPredictor p;
    for (int t = 0; t < 150; ++t)
        p.observe(t % 20 == 0 ? 4.0 : 0.0);
    for (int t = 0; t < 10; ++t) {
        EXPECT_GE(p.predictNext(), 0.0);
        p.observe(0.0);
    }
}

TEST(FftPredictorTest, WindowIsBounded)
{
    // Checked through the forecasts: a full window of 1.0 pushes the
    // earlier 5.0s out, a full window of zeros is silent, reset
    // empties the window, and an empty predictor forecasts 0.
    FftPredictorConfig config;
    config.window = 32;
    FftPredictor p(config);
    for (int i = 0; i < 100; ++i)
        p.observe(5.0);
    for (int i = 0; i < 32; ++i)
        p.observe(1.0);
    EXPECT_NEAR(p.predictNext(), 1.0, 1e-6);
    for (int i = 0; i < 32; ++i)
        p.observe(0.0);
    for (const double v : p.forecastHorizon(4))
        EXPECT_EQ(v, 0.0);
    for (int i = 0; i < 100; ++i)
        p.observe(1.0);
    p.reset();
    EXPECT_EQ(p.predictNext(), 0.0);
    p.observe(2.0); // one sample, below min_samples: its mean
    EXPECT_EQ(p.predictNext(), 2.0);
}

TEST(FftPredictorTest, HorizonFirstElementIsPredictNext)
{
    FftPredictor a, b;
    for (int t = 0; t < 90; ++t) {
        const double v = 3.0 + 2.0 * std::cos(2.0 * M_PI * t / 15.0);
        a.observe(v);
        b.observe(v);
    }
    const std::vector<double> horizon = a.forecastHorizon(5);
    ASSERT_EQ(horizon.size(), 5u);
    EXPECT_DOUBLE_EQ(horizon[0], b.predictNext());
}

TEST(FftPredictorTest, HorizonFollowsPeriodicity)
{
    // Period-20 pulses: the horizon should light up near the next
    // pulse and stay low in between.
    FftPredictorConfig config;
    config.window = 120;
    FftPredictor p(config);
    auto value = [](int t) { return t % 20 == 0 ? 6.0 : 0.0; };
    for (int t = 0; t < 120; ++t)
        p.observe(value(t));
    // Last observed t = 119; next pulse at t = 120 (offset 0 in the
    // horizon), the following at offset 20.
    const std::vector<double> horizon = p.forecastHorizon(21);
    EXPECT_GT(horizon[0], 1.0);
    double mid = 0.0;
    for (std::size_t i = 5; i <= 15; ++i)
        mid = std::max(mid, horizon[i]);
    EXPECT_GT(horizon[20], mid);
}


TEST(FftPredictorTest, RingBufferMatchesEraseWindowReference)
{
    // The predictor's ring-buffer window against math's stages
    // composed over an erase-from-front window (stage_reference.hh),
    // bit for bit at every stream position, including the
    // wrap-around steps after the window first fills.
    FftPredictorConfig config;
    config.window = 24; // small window -> many wrap-arounds
    FftPredictor predictor(config);
    stage::Reference reference(config);

    std::vector<double> actual;
    std::vector<double> expected;
    for (int t = 0; t < 90; ++t) {
        const double value = std::max(
            0.0, 3.0 + 2.0 * std::cos(2.0 * M_PI * t / 7.0) + 0.05 * t);
        predictor.observe(value);
        reference.observe(value);
        predictor.forecastHorizon(5, actual);
        reference.forecastHorizon(5, expected);
        ASSERT_EQ(actual.size(), 5u);
        for (std::size_t step = 0; step < expected.size(); ++step) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[step]),
                      std::bit_cast<std::uint64_t>(expected[step]))
                << "t=" << t << " step=" << step;
        }
    }
}

TEST(FftPredictorTest, MatchesSeedPredictor)
{
    // The forecaster against the seed's implementation
    // (seed_predictor.hh), which shares none of its fitting code:
    // 11-step horizons at window 120 from the first observation on,
    // so warm-up and the window-mean steps are covered too. The
    // real-input FFT packing reorders roundoff, so forecasts agree to
    // a tolerance, not bitwise.
    const auto two_tones = [](std::size_t t) {
        const double ft = static_cast<double>(t);
        return std::max(0.0, 7.0 +
                                 3.0 * std::cos(2.0 * M_PI * ft / 33.0 +
                                                0.37 * 3.0) +
                                 1.5 * std::cos(2.0 * M_PI * ft / 4.7) +
                                 0.004 * 3.0 * ft);
    };
    // Twelve tones, more than the ten harmonics the FIP keeps, so the
    // top-10 peak selection decides the forecast. Smooth signals with
    // fewer peaks than that cannot tell nine kept harmonics from ten.
    const auto twelve_tones = [](std::size_t t) {
        const double ft = static_cast<double>(t);
        double value = 30.0 + 0.01 * ft;
        for (int j = 1; j <= 12; ++j) {
            value += (4.0 / j) *
                std::cos(2.0 * M_PI * ft * (4.3 * j + 0.37) / 120.0 +
                         0.7 * j);
        }
        return std::max(0.0, value);
    };

    const FftPredictorConfig config;
    ASSERT_EQ(config.window, 120u);
    ASSERT_EQ(config.harmonics, 10u);
    const std::size_t horizon = 11;
    /** Worst |diff| over a stream's horizons, and the forecasts (one
     * per step) whose horizon differs by more than 1e-9 anywhere. */
    struct Agreement
    {
        double worst = 0.0;
        std::size_t outliers = 0;
        std::size_t forecasts = 0;
    };
    const auto agreement = [&](std::size_t intervals, const auto &signal) {
        FftPredictor predictor(config);
        seed::Predictor reference(config);
        std::vector<double> actual;
        Agreement a;
        for (std::size_t t = 0; t < intervals; ++t) {
            predictor.observe(signal(t));
            reference.observe(signal(t));
            predictor.forecastHorizon(horizon, actual);
            const std::vector<double> expected =
                reference.forecastHorizon(horizon);
            double worst = 0.0;
            for (std::size_t step = 0; step < horizon; ++step)
                worst = std::max(worst,
                                 std::fabs(actual[step] - expected[step]));
            a.worst = std::max(a.worst, worst);
            a.outliers += worst > 1e-9;
            ++a.forecasts;
        }
        return a;
    };
    EXPECT_LE(agreement(config.window + 200, two_tones).worst, 1e-9);
    EXPECT_LE(agreement(config.window + 200, twelve_tones).worst, 1e-9);

    // Generator histories: fig6's generator configuration and the
    // sparse Azure-shaped preset at trace seed 1 (not the held-out
    // 1009). Their windows hold up to ten close, leaky peaks, and a
    // few ill-conditioned fits amplify the roundoff difference: over
    // 64 x 400 histories of each shape at seeds 1-4 the worst horizon
    // differed by 1.8e-4 and at most 7 of 25,600 forecasts by more
    // than 1e-9; on these 16 x 360 the worst reads 6.2e-5 with 3 of
    // 5,760. A fit that loses or misplaces a harmonic moves most
    // forecasts far past either bound.
    const std::size_t functions = 16;
    const std::size_t intervals = 360;
    iceb::trace::SyntheticConfig fig6;
    fig6.num_functions = functions;
    fig6.num_intervals = intervals;
    fig6.min_memory_mb = 256;
    fig6.seed = 1;
    iceb::trace::SyntheticConfig azure =
        iceb::trace::azureScaleConfig(functions, intervals);
    azure.seed = 1;
    for (const auto &[name, shape] :
         {std::pair{"fig6", fig6}, std::pair{"azure", azure}}) {
        const iceb::trace::Trace trace =
            iceb::trace::SyntheticTraceGenerator(shape).generate();
        Agreement total;
        for (const iceb::trace::FunctionSeries &fn : trace.functions()) {
            const Agreement a = agreement(intervals, [&](std::size_t t) {
                return static_cast<double>(fn.concurrency[t]);
            });
            total.worst = std::max(total.worst, a.worst);
            total.outliers += a.outliers;
            total.forecasts += a.forecasts;
        }
        EXPECT_LE(total.worst, 1e-3) << name;
        EXPECT_LE(total.outliers * 1000, total.forecasts)
            << name << ": " << total.outliers << " of " << total.forecasts
            << " forecasts beyond 1e-9";
    }
}

// ---------------------------------------------------------------- ARIMA

TEST(ArimaTest, ConstantSeries)
{
    ArimaPredictor p;
    for (int i = 0; i < 100; ++i)
        p.observe(7.0);
    EXPECT_NEAR(p.predictNext(), 7.0, 0.5);
}

TEST(ArimaTest, LinearTrendViaDifferencing)
{
    ArimaPredictor p(
        ArimaConfig{.p = 2, .q = 1, .window = 120, .refit_every = 1});
    for (int t = 0; t < 100; ++t)
        p.observe(2.0 * t);
    EXPECT_NEAR(p.predictNext(), 200.0, 4.0);
}

TEST(ArimaTest, TracksSlowSinusoid)
{
    ArimaPredictor p;
    std::vector<double> series;
    for (int t = 0; t < 200; ++t)
        series.push_back(10.0 + 4.0 * std::sin(2.0 * M_PI * t / 40.0));
    const std::vector<double> forecasts =
        rollingForecast(p, series, 120);
    EXPECT_LT(maeAgainst(series, 120, forecasts), 1.2);
}

TEST(ArimaTest, WorseThanFftOnSparseBurstTrains)
{
    // The paper's Fig. 10 claim, as a property: on a sparse periodic
    // burst train (where predicting requires knowing *when* the next
    // burst lands) the FFT FIP's error on burst intervals is smaller
    // than ARIMA's, both before and after a period switch.
    std::vector<double> series;
    for (int t = 0; t < 500; ++t) {
        const bool burst =
            t < 250 ? (t % 16 < 2) : ((t - 250) % 28 < 2);
        series.push_back(burst ? 5.0 : 0.0);
    }
    ArimaPredictor arima;
    FftPredictor fft;
    double arima_err = 0.0;
    double fft_err = 0.0;
    for (std::size_t t = 0; t < series.size(); ++t) {
        arima.observe(series[t]);
        fft.observe(series[t]);
        if (t + 1 >= series.size())
            break;
        if (t >= 150 && series[t + 1] > 0.0) {
            arima_err += std::fabs(arima.predictNext() - series[t + 1]);
            fft_err += std::fabs(fft.predictNext() - series[t + 1]);
        }
    }
    EXPECT_LT(fft_err, arima_err);
}

TEST(ArimaTest, NeverNegativeAndResets)
{
    ArimaPredictor p;
    for (int i = 0; i < 60; ++i)
        p.observe(i % 7 == 0 ? 1.0 : 0.0);
    EXPECT_GE(p.predictNext(), 0.0);
    p.reset();
    EXPECT_DOUBLE_EQ(p.predictNext(), 0.0);
}

// ----------------------------------------------------- Hybrid histogram

TEST(HybridHistogramTest, NotRepresentativeWithoutSamples)
{
    HybridHistogram h;
    EXPECT_FALSE(h.representative());
    EXPECT_FALSE(h.forecast().usable);
}

TEST(HybridHistogramTest, RegularIdleTimesGiveTightWindow)
{
    HybridHistogram h;
    for (int i = 0; i <= 20; ++i)
        h.observeArrival(i * 30);
    ASSERT_TRUE(h.representative());
    const IdleWindowForecast f = h.forecast();
    ASSERT_TRUE(f.usable);
    EXPECT_NEAR(f.head_minutes, 30.0, 1.0);
    EXPECT_NEAR(f.tail_minutes, 31.0, 2.0);
    EXPECT_EQ(h.sampleCount(), 20u);
}

TEST(HybridHistogramTest, QuantilesFromMixedGaps)
{
    HybridHistogram h;
    iceb::IntervalIndex t = 0;
    // 18 one-minute gaps, 2 sixty-minute gaps.
    for (int burst = 0; burst < 2; ++burst) {
        for (int i = 0; i < 9; ++i)
            h.observeArrival(++t);
        t += 60;
        h.observeArrival(t);
    }
    EXPECT_DOUBLE_EQ(h.quantileMinutes(0.05), 1.0);
    EXPECT_DOUBLE_EQ(h.quantileMinutes(0.99), 60.0);
}

TEST(HybridHistogramTest, WideWindowIsRejected)
{
    // Idle gaps span 1..60 minutes: a [1, 60] window would cost more
    // than a fixed keep-alive, so the forecast must not be usable via
    // the histogram path.
    HybridHistogram h;
    iceb::IntervalIndex t = 0;
    for (int i = 0; i < 30; ++i) {
        t += (i % 2 == 0) ? 1 : 60;
        h.observeArrival(t);
    }
    const IdleWindowForecast f = h.forecast();
    if (f.usable) {
        EXPECT_LE(f.tail_minutes - f.head_minutes, 21.0);
    }
}

TEST(HybridHistogramTest, OutOfBoundsGapsBreakRepresentativeness)
{
    HybridHistogram h;
    for (int i = 0; i < 20; ++i)
        h.observeArrival(i * 500); // 500-minute gaps, all OOB
    EXPECT_FALSE(h.representative());
}

TEST(HybridHistogramTest, ArimaFallbackCentresWindowOnForecast)
{
    // Every gap lies past the 240-minute range, so the histogram is
    // not representative and the window is centred on the ARIMA
    // forecast of the next gap: the same forecast a standalone
    // predictor with the fallback's configuration makes from the same
    // gaps.
    static_assert(HybridHistogram::kMaxIdleMinutes < 290);
    HybridHistogram h;
    ArimaPredictor arima(
        ArimaConfig{.p = 2, .q = 1, .window = 64, .refit_every = 1});
    iceb::IntervalIndex t = 0;
    h.observeArrival(t);
    for (int i = 0; i < 40; ++i) {
        const iceb::IntervalIndex gap = 290 + 10 * (i % 3);
        t += gap;
        h.observeArrival(t);
        arima.observe(static_cast<double>(gap));
    }
    ASSERT_FALSE(h.representative());
    const double p = arima.predictNext();
    EXPECT_GE(p, 290.0);
    EXPECT_LE(p, 310.0);
    const IdleWindowForecast f = h.forecast();
    ASSERT_TRUE(f.usable);
    EXPECT_EQ(f.head_minutes, 0.85 * p);
    EXPECT_EQ(f.tail_minutes, 1.3 * p + 1.0);
}

// ------------------------------------------------------------------ LSTM

TEST(LstmTest, LearnsConstantSeries)
{
    LstmConfig config;
    config.window = 24;
    config.epochs_per_observe = 6;
    LstmPredictor p(config);
    for (int i = 0; i < 120; ++i)
        p.observe(4.0);
    EXPECT_NEAR(p.predictNext(), 4.0, 1.0);
}

TEST(LstmTest, LearnsAlternatingSeries)
{
    LstmConfig config;
    config.window = 24;
    config.epochs_per_observe = 8;
    LstmPredictor p(config);
    for (int i = 0; i < 300; ++i)
        p.observe(i % 2 == 0 ? 6.0 : 2.0);
    // After a 6.0 (i = 299 is odd -> last observed 2.0), next is 6.0.
    const double forecast = p.predictNext();
    EXPECT_GT(forecast, 3.5);
}

TEST(LstmTest, DeterministicGivenSeed)
{
    LstmPredictor a, b;
    for (int i = 0; i < 60; ++i) {
        const double v = (i % 5 == 0) ? 3.0 : 1.0;
        a.observe(v);
        b.observe(v);
    }
    EXPECT_DOUBLE_EQ(a.predictNext(), b.predictNext());
}

TEST(LstmTest, NeverNegativeAndResetClearsState)
{
    LstmPredictor p;
    for (int i = 0; i < 80; ++i)
        p.observe(i % 11 == 0 ? 2.0 : 0.0);
    EXPECT_GE(p.predictNext(), 0.0);
    p.reset();
    EXPECT_DOUBLE_EQ(p.predictNext(), 0.0);
}

// --------------------------------------------------- Prediction tracker

TEST(PredictionTrackerTest, RatesOverWindow)
{
    PredictionTracker tracker(4);
    tracker.recordInterval(10, 2, 5);
    tracker.recordInterval(10, 0, 0);
    EXPECT_DOUBLE_EQ(tracker.trueNegativeRate(), 2.0 / 20.0);
    EXPECT_DOUBLE_EQ(tracker.falsePositiveRate(), 5.0 / 20.0);
    EXPECT_EQ(tracker.windowInvocations(), 20u);
}

TEST(PredictionTrackerTest, OldIntervalsRollOut)
{
    PredictionTracker tracker(2);
    tracker.recordInterval(10, 10, 0);
    tracker.recordInterval(10, 0, 0);
    tracker.recordInterval(10, 0, 0); // pushes the all-cold interval out
    EXPECT_DOUBLE_EQ(tracker.trueNegativeRate(), 0.0);
}

TEST(PredictionTrackerTest, NoInvocationsEdgeCases)
{
    PredictionTracker tracker(4);
    EXPECT_DOUBLE_EQ(tracker.trueNegativeRate(), 0.0);
    EXPECT_DOUBLE_EQ(tracker.falsePositiveRate(), 0.0);
    tracker.recordInterval(0, 0, 3);
    EXPECT_DOUBLE_EQ(tracker.falsePositiveRate(), 1.0);
    tracker.reset();
    EXPECT_DOUBLE_EQ(tracker.falsePositiveRate(), 0.0);
}

TEST(PredictionTrackerTest, FalsePositiveCanExceedOne)
{
    PredictionTracker tracker(4);
    tracker.recordInterval(2, 0, 10);
    EXPECT_DOUBLE_EQ(tracker.falsePositiveRate(), 5.0);
}

TEST(PredictionTrackerDeathTest, MoreColdThanInvokedPanics)
{
    PredictionTracker tracker(4);
    EXPECT_DEATH(tracker.recordInterval(1, 2, 0), "cold starts");
}

} // namespace
