/**
 * @file
 * Reproduces Fig. 11: replacing the FFT-based FIP with an LSTM buys
 * only a marginal accuracy improvement at a prohibitive per-interval
 * overhead. The overhead side is measured with google-benchmark: the
 * LSTM's observe + predict step, and the FIP as IceBreaker runs it,
 * one observe + forecast round of an 8-function ForecastPool (one
 * full kernel block), reported per forecast. The accuracy side
 * compares rolling one-step MAE on a representative periodic series.
 * A harmonic-count ablation (Sec. 3.1's n = 10 choice) closes the
 * binary.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <iostream>

#include "common/table.hh"
#include "math/stats.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/forecast_pool.hh"
#include "predictors/lstm.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace iceb;

std::vector<double>
benchSignal(std::size_t n)
{
    // The sparse burst train of Figs. 4/10: the representative hard
    // case for per-interval concurrency prediction.
    return trace::makePeriodSwitchPulseTrain(n, 22.0, 34.0, n / 2, 3,
                                             5.0);
}

/** One-step MAE restricted to burst intervals (activity present). */
double
burstMae(predictors::Predictor &predictor,
         const std::vector<double> &signal, std::size_t skip)
{
    double acc = 0.0;
    std::size_t count = 0;
    for (std::size_t t = 0; t + 1 < signal.size(); ++t) {
        predictor.observe(signal[t]);
        if (t >= skip && signal[t + 1] > 0.0) {
            acc += std::fabs(predictor.predictNext() - signal[t + 1]);
            ++count;
        }
    }
    return acc / static_cast<double>(count);
}

void
BM_FftFipStep(benchmark::State &state)
{
    // Eight functions see the burst train at eight phases, so every
    // round fits one full block, as IceBreaker's fleet does.
    const std::vector<double> signal = benchSignal(4096);
    const std::size_t functions = predictors::kernels::kLanes;
    const std::size_t phase = signal.size() / functions;
    predictors::ForecastPool pool;
    for (std::size_t fn = 0; fn < functions; ++fn)
        pool.addFunction(predictors::FftPredictorConfig{});
    std::size_t t = 0;
    for (auto _ : state) {
        for (std::size_t fn = 0; fn < functions; ++fn)
            pool.observe(fn, signal[(t + fn * phase) % signal.size()]);
        pool.forecastAll(1);
        benchmark::DoNotOptimize(pool.forecast(0));
        benchmark::ClobberMemory();
        ++t;
    }
    state.counters["per_forecast"] = benchmark::Counter(
        static_cast<double>(functions),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}
BENCHMARK(BM_FftFipStep);

void
BM_LstmStep(benchmark::State &state)
{
    const std::vector<double> signal = benchSignal(4096);
    predictors::LstmConfig config;
    config.epochs_per_observe = 8;
    predictors::LstmPredictor predictor(config);
    std::size_t t = 0;
    for (auto _ : state) {
        predictor.observe(signal[t % signal.size()]);
        benchmark::DoNotOptimize(predictor.predictNext());
        ++t;
    }
}
BENCHMARK(BM_LstmStep);

} // namespace

int
main(int argc, char **argv)
{
    // Accuracy comparison (the "marginal improvement" half).
    const std::vector<double> signal = benchSignal(720);
    predictors::FftPredictor fft;
    predictors::LstmConfig lstm_config;
    lstm_config.epochs_per_observe = 8;
    predictors::LstmPredictor lstm(lstm_config);

    TextTable accuracy("Fig. 11: prediction accuracy, FFT FIP vs "
                       "LSTM (burst-interval one-step MAE)");
    accuracy.setHeader({"predictor", "MAE"});
    accuracy.addRow({"IceBreaker FIP", TextTable::num(
                                           burstMae(fft, signal, 150),
                                           3)});
    accuracy.addRow({"LSTM", TextTable::num(
                                 burstMae(lstm, signal, 150), 3)});
    accuracy.print(std::cout);

    // Harmonic-count ablation (Sec. 3.1: < 0.75% change beyond 10).
    TextTable ablation("Sec. 3.1 ablation: FIP accuracy vs harmonic "
                       "count");
    ablation.setHeader({"harmonics", "MAE"});
    for (std::size_t n : {2u, 5u, 10u, 16u, 24u}) {
        predictors::FftPredictorConfig config;
        config.harmonics = n;
        predictors::FftPredictor predictor(config);
        ablation.addRow({std::to_string(n),
                         TextTable::num(
                             burstMae(predictor, signal, 150), 3)});
    }
    std::cout << "\n";
    ablation.print(std::cout);

    std::cout << "\nOverhead (the prohibitive half) -- per-interval "
                 "per-function cost of one\nobserve+predict step; the "
                 "LSTM's online BPTT training makes it orders of\n"
                 "magnitude slower (paper: 243x):\n\n";

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
