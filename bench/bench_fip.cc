/**
 * @file
 * FIP microbenchmark: the ForecastPool's batched kernels (the
 * forecaster IceBreaker runs) against a fleet of scalar FftPredictor
 * instances, on histories from fig6's trace generator.
 *
 * The batch row reports ns/forecast and forecasts/sec for the scalar
 * fleet and for the pool at --batch-functions scale (default 10000,
 * accepted up to 1M). Each function's history comes from
 * trace::SyntheticTraceGenerator at fig6's configuration (the default
 * SyntheticConfig with min_memory_mb = 256), so the windows carry the
 * spectral peaks, silences and bursts the pool fits in a fig6 run. The
 * row also checks that the pool's forecasts are bit-identical to the
 * scalar predictor's and that a steady-state pool round allocates
 * nothing.
 *
 * A second probe runs one scalar FftPredictor on a dense two-cosine
 * stream until its workspaces converge and counts the allocations of
 * its steady-state forecasts.
 *
 * The forecaster's agreement with the seed implementation is a gtest,
 * FftPredictorTest.MatchesSeedPredictor.
 *
 * Flags:
 *   --window N                      FIP window (default 120, non-pow2)
 *   --batch-functions N             fleet size (default 10000, up to 1M)
 *   --batch-intervals N             timed rounds (default 3)
 *   --json PATH                     output path (default BENCH_fip.json)
 *   --smoke                         small fleet + correctness gates:
 *                                   exits non-zero if the scalar
 *                                   predictor allocates in steady
 *                                   state, the pool is not
 *                                   bit-identical to the scalar
 *                                   predictor, or the pool allocates
 *                                   in steady state. Absolute timings
 *                                   are NOT gated (CI noise).
 *   --baseline PATH                 gate the batch exact-vs-scalar
 *                                   speedup against a committed
 *                                   BENCH_fip.json: re-runs at the
 *                                   committed batch scale (best of 5
 *                                   rounds) and fails if more than 2%
 *                                   below it. Refuses loudly if the
 *                                   committed config digest does not
 *                                   match its recorded window/horizon/
 *                                   batch geometry and this build's
 *                                   input source (stale baseline) or
 *                                   the baseline's window and horizon
 *                                   differ from this run's.
 *
 * Numeric flags take plain decimal digits; anything else prints the
 * usage and exits 2.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "bench_probe.hh"
#include "common/cli.hh"
#include "harness/baseline_gate.hh"
#include "math/fft.hh"
#include "predictors/fft_predictor.hh"
#include "predictors/forecast_pool.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace iceb;
using Clock = std::chrono::steady_clock;

struct BenchConfig
{
    std::size_t window = 120;
    std::size_t horizon = 11;
    std::size_t batch_functions = 10000;
    std::size_t batch_intervals = 3;
    std::string json_path = "BENCH_fip.json";
    std::string baseline_path;
    bool smoke = false;
};

/** The batch row's input source, hashed into config_digest. */
constexpr const char *kBatchInputs = "fig6-generator";

/** Untimed observations before the first forecast of a batch row. */
std::size_t
warmIntervals(const BenchConfig &cfg)
{
    return cfg.window + 8;
}

/**
 * The batch row's histories: fig6's generator configuration with
 * enough intervals for the warm-up, the timed rounds and the
 * allocation probe's round.
 */
trace::Trace
fleetHistories(const BenchConfig &cfg)
{
    trace::SyntheticConfig config;
    config.num_functions = cfg.batch_functions;
    config.num_intervals = warmIntervals(cfg) + cfg.batch_intervals + 1;
    config.min_memory_mb = 256;
    return trace::SyntheticTraceGenerator(config).generate();
}

/**
 * A dense two-cosine stream with a trend, for the scalar steady-state
 * probe: its window never goes silent, so every step runs the fit.
 */
double
signalAt(std::size_t t)
{
    const double ft = static_cast<double>(t);
    const double value = 7.0 +
        3.0 * std::cos(2.0 * M_PI * ft / 33.0 + 0.37 * 3.0) +
        1.5 * std::cos(2.0 * M_PI * ft / 4.7) + 0.004 * 3.0 * ft;
    return std::max(0.0, value);
}

/**
 * Steady-state allocation probe: one predictor on a fixed-spectrum
 * stream, counted after every workspace capacity has converged.
 */
double
steadyStateAllocs(const BenchConfig &cfg)
{
    predictors::FftPredictorConfig fip;
    fip.window = cfg.window;
    predictors::FftPredictor predictor(fip);
    std::vector<double> out;
    for (std::size_t t = 0; t < cfg.window + 128; ++t) {
        predictor.observe(signalAt(t));
        predictor.forecastHorizon(cfg.horizon, out);
    }
    const int iters = 512;
    const long long before = bench::allocationCount();
    for (int i = 0; i < iters; ++i) {
        predictor.observe(
            signalAt(cfg.window + 128 + static_cast<std::size_t>(i)));
        predictor.forecastHorizon(cfg.horizon, out);
    }
    return static_cast<double>(bench::allocationCount() - before) / iters;
}

// ---------------------------------------------------------------------------
// Batch row: the ForecastPool SoA engine vs a scalar predictor fleet
// at --batch-functions scale.
// ---------------------------------------------------------------------------

struct BatchResult
{
    std::size_t functions = 0;
    std::size_t intervals = 0;
    /** Functions the scalar fleet actually timed/verified (capped so
     * a 1M-function batch run does not also build 1M scalar
     * predictor objects; per-forecast scalar cost is scale-free). */
    std::size_t scalar_sample = 0;
    double scalar_ns = 0.0;
    double exact_ns = 0.0;
    double exact_diff = 0.0; //!< max |pool_exact - scalar| (gate: 0)
    long long exact_bit_mismatches = 0;
    double steady_allocs = 0.0; //!< pool allocs per (function,interval)
};

BatchResult
runBatch(const BenchConfig &cfg, const trace::Trace &histories)
{
    using predictors::FftPredictor;
    using predictors::FftPredictorConfig;
    using predictors::ForecastPool;

    BatchResult r;
    r.functions = cfg.batch_functions;
    r.intervals = cfg.batch_intervals;
    r.scalar_sample =
        std::min<std::size_t>(cfg.batch_functions, 65536);

    const std::vector<trace::FunctionSeries> &series =
        histories.functions();
    const auto valueAt = [&](std::size_t fn, std::size_t t) {
        return static_cast<double>(series[fn].concurrency[t]);
    };

    FftPredictorConfig fip;
    fip.window = cfg.window;

    ForecastPool pool_exact;
    std::vector<FftPredictor> scalar;
    scalar.reserve(r.scalar_sample);
    for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
        pool_exact.addFunction(fip);
        if (fn < r.scalar_sample)
            scalar.emplace_back(fip);
    }

    // Fill every history to a full window (untimed), then one warm
    // forecast per mode so workspace capacities converge before the
    // timed rounds.
    const std::size_t warm = warmIntervals(cfg);
    for (std::size_t t = 0; t < warm; ++t) {
        for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
            const double v = valueAt(fn, t);
            pool_exact.observe(fn, v);
            if (fn < r.scalar_sample)
                scalar[fn].observe(v);
        }
    }
    pool_exact.forecastAll(cfg.horizon);
    std::vector<double> out;
    for (std::size_t fn = 0; fn < r.scalar_sample; ++fn)
        scalar[fn].forecastHorizon(cfg.horizon, out);

    // Timed rounds: observe one interval per function, then forecast
    // the fleet. Both modes walk the same observation stream so the
    // post-timing states line up for the equivalence sweep.
    const std::size_t rounds = cfg.batch_intervals;

    auto t0 = Clock::now();
    for (std::size_t rd = 0; rd < rounds; ++rd) {
        for (std::size_t fn = 0; fn < r.scalar_sample; ++fn) {
            scalar[fn].observe(valueAt(fn, warm + rd));
            scalar[fn].forecastHorizon(cfg.horizon, out);
        }
    }
    auto t1 = Clock::now();
    r.scalar_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(r.scalar_sample * rounds);

    t0 = Clock::now();
    for (std::size_t rd = 0; rd < rounds; ++rd) {
        for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn)
            pool_exact.observe(fn, valueAt(fn, warm + rd));
        pool_exact.forecastAll(cfg.horizon);
    }
    t1 = Clock::now();
    r.exact_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(cfg.batch_functions * rounds);

    // Equivalence sweep over a bounded subset (the scalar forecast is
    // recomputed from the identical post-timing history; the pool's
    // last forecastAll covers the same history).
    const std::size_t check =
        std::min<std::size_t>(r.scalar_sample, 4096);
    for (std::size_t fn = 0; fn < check; ++fn) {
        scalar[fn].forecastHorizon(cfg.horizon, out);
        const double *exact = pool_exact.forecast(fn);
        for (std::size_t h = 0; h < cfg.horizon; ++h) {
            r.exact_diff = std::max(r.exact_diff,
                                    std::fabs(exact[h] - out[h]));
            if (std::memcmp(&exact[h], &out[h], sizeof(double)) != 0)
                ++r.exact_bit_mismatches;
        }
    }

    // Steady-state allocation probe: one more observe+forecastAll
    // round must not allocate at all.
    const long long before = bench::allocationCount();
    for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn)
        pool_exact.observe(fn, valueAt(fn, warm + rounds));
    pool_exact.forecastAll(cfg.horizon);
    r.steady_allocs =
        static_cast<double>(bench::allocationCount() - before) /
        static_cast<double>(cfg.batch_functions);
    return r;
}

/**
 * FNV-1a digest of the geometry and input source a batch measurement
 * depends on. The baseline gate refuses to compare runs whose digests
 * disagree, so a committed BENCH_fip.json can never silently gate a
 * differently configured run.
 */
std::string
configDigest(std::size_t window, std::size_t horizon,
             std::size_t batch_functions, std::size_t batch_intervals)
{
    char text[160];
    std::snprintf(text, sizeof(text),
                  "window=%zu;horizon=%zu;batch_functions=%zu;"
                  "batch_intervals=%zu;inputs=%s",
                  window, horizon, batch_functions, batch_intervals,
                  kBatchInputs);
    unsigned long long hash = 1469598103934665603ull;
    for (const char *p = text; *p != '\0'; ++p) {
        hash ^= static_cast<unsigned char>(*p);
        hash *= 1099511628211ull;
    }
    char out[32];
    std::snprintf(out, sizeof(out), "0x%016llx", hash);
    return out;
}

/** Fields the baseline gate reads from a committed BENCH_fip.json. */
struct Baseline
{
    std::size_t window = 0;
    std::size_t horizon = 0;
    std::size_t batch_functions = 0;
    std::size_t batch_intervals = 0;
    double speedup_exact_vs_scalar = 0.0;
    std::string digest;
};

/** The batch keys are the file's only "functions" and "intervals". */
Baseline
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "bench_fip: cannot read baseline %s\n",
                     path.c_str());
        std::exit(1);
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto missing = [&](const char *key) {
        std::fprintf(stderr,
                     "bench_fip: baseline %s has no %s -- "
                     "regenerate it with a full run\n",
                     path.c_str(), key);
        std::exit(1);
    };
    const auto number = [&](const char *key) {
        const std::optional<double> value =
            harness::findJsonNumber(text, key);
        if (!value)
            missing(key);
        return *value;
    };

    Baseline base;
    base.window = static_cast<std::size_t>(number("window"));
    base.horizon = static_cast<std::size_t>(number("horizon"));
    base.batch_functions = static_cast<std::size_t>(number("functions"));
    base.batch_intervals = static_cast<std::size_t>(number("intervals"));
    base.speedup_exact_vs_scalar = number("speedup_exact_vs_scalar");
    const std::optional<std::string> digest =
        harness::findJsonString(text, "config_digest");
    if (!digest)
        missing("config_digest");
    base.digest = *digest;
    return base;
}

void
writeJson(const BenchConfig &cfg, double steady_allocs_scalar,
          const BatchResult &batch)
{
    std::ofstream out(cfg.json_path);
    if (!out) {
        std::cerr << "cannot write " << cfg.json_path << "\n";
        std::exit(1);
    }
    out << "{\n";
    out << "  \"bench\": \"bench_fip\",\n";
    out << "  \"window\": " << cfg.window << ",\n";
    out << "  \"horizon\": " << cfg.horizon << ",\n";
    out << "  \"steady_state_allocs\": {\n";
    out << "    \"scalar\": " << steady_allocs_scalar << "\n";
    out << "  },\n";
    out << "  \"batch\": {\n";
    out << "    \"functions\": " << batch.functions << ",\n";
    out << "    \"intervals\": " << batch.intervals << ",\n";
    out << "    \"scalar_sample_functions\": " << batch.scalar_sample
        << ",\n";
    out << "    \"scalar_ns_per_forecast\": " << batch.scalar_ns
        << ",\n";
    out << "    \"exact_ns_per_forecast\": " << batch.exact_ns << ",\n";
    out << "    \"scalar_forecasts_per_sec\": "
        << 1e9 / batch.scalar_ns << ",\n";
    out << "    \"exact_forecasts_per_sec\": " << 1e9 / batch.exact_ns
        << ",\n";
    out << "    \"speedup_exact_vs_scalar\": "
        << batch.scalar_ns / batch.exact_ns << ",\n";
    out << "    \"max_abs_diff_exact\": " << batch.exact_diff << ",\n";
    out << "    \"steady_state_allocs\": " << batch.steady_allocs
        << "\n";
    out << "  },\n";
    out << "  \"config_digest\": \""
        << configDigest(cfg.window, cfg.horizon, batch.functions,
                        batch.intervals)
        << "\"\n";
    out << "}\n";
}

[[noreturn]] void
usage(int status)
{
    (status == 0 ? std::cout : std::cerr)
        << "usage: bench_fip [--window N] [--batch-functions N]"
        << " [--batch-intervals N] [--json PATH] [--baseline PATH]"
        << " [--smoke]\n";
    std::exit(status);
}

} // namespace

int
main(int argc, char **argv)
{
    BenchConfig cfg;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << arg << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        const auto count = [&] {
            const std::optional<std::uint64_t> value =
                parseUintFlag("bench_fip", arg, next().c_str());
            if (!value)
                usage(2);
            return static_cast<std::size_t>(*value);
        };
        if (arg == "--window") {
            cfg.window = count();
        } else if (arg == "--batch-functions") {
            cfg.batch_functions =
                std::clamp<std::size_t>(count(), 1, 1000000);
        } else if (arg == "--batch-intervals") {
            cfg.batch_intervals = std::max<std::size_t>(1, count());
        } else if (arg == "--json") {
            cfg.json_path = next();
        } else if (arg == "--baseline") {
            cfg.baseline_path = next();
        } else if (arg == "--smoke") {
            cfg.smoke = true;
        } else {
            usage(arg == "--help" ? 0 : 2);
        }
    }
    if (cfg.smoke) {
        cfg.batch_functions =
            std::min<std::size_t>(cfg.batch_functions, 512);
        cfg.batch_intervals =
            std::min<std::size_t>(cfg.batch_intervals, 2);
    }

    // The baseline gate compares like against like: the batch row
    // re-runs at the committed geometry (overriding --smoke's clamp),
    // and a baseline whose digest disagrees with its own recorded
    // geometry and this build's input source -- or whose window or
    // horizon disagree with this run -- is refused rather than
    // silently compared.
    Baseline baseline;
    if (!cfg.baseline_path.empty()) {
        baseline = readBaseline(cfg.baseline_path);
        const std::string expect = configDigest(
            baseline.window, baseline.horizon, baseline.batch_functions,
            baseline.batch_intervals);
        if (baseline.digest != expect) {
            std::fprintf(stderr,
                         "FAIL: baseline %s is stale: config_digest %s"
                         " does not match its recorded geometry and"
                         " inputs (expected %s) -- regenerate the"
                         " baseline\n",
                         cfg.baseline_path.c_str(),
                         baseline.digest.c_str(), expect.c_str());
            return 1;
        }
        if (baseline.window != cfg.window ||
            baseline.horizon != cfg.horizon) {
            std::fprintf(stderr,
                         "FAIL: baseline %s was measured at window=%zu"
                         " horizon=%zu but this run uses window=%zu"
                         " horizon=%zu -- refusing to compare"
                         " mismatched configs\n",
                         cfg.baseline_path.c_str(), baseline.window,
                         baseline.horizon, cfg.window, cfg.horizon);
            return 1;
        }
        cfg.batch_functions = baseline.batch_functions;
        cfg.batch_intervals = baseline.batch_intervals;
    }

    const double steady_allocs_scalar = steadyStateAllocs(cfg);
    const trace::Trace histories = fleetHistories(cfg);
    const BatchResult batch = runBatch(cfg, histories);

    std::printf("bench_fip: window %zu (non-pow2: %s), horizon %zu\n",
                cfg.window,
                math::isPowerOfTwo(cfg.window) ? "no" : "yes",
                cfg.horizon);
    std::printf("  steady-state allocs: scalar predictor %.3f\n",
                steady_allocs_scalar);
    std::printf("batch: %zu functions x %zu intervals of %s histories"
                " (scalar fleet sampled at %zu)\n",
                batch.functions, batch.intervals, kBatchInputs,
                batch.scalar_sample);
    std::printf("  %-12s %10s %16s %10s\n", "mode", "ns/fcast",
                "forecasts/sec", "speedup");
    std::printf("  %-12s %10.0f %16.0f %10s\n", "scalar",
                batch.scalar_ns, 1e9 / batch.scalar_ns, "1.00x");
    std::printf("  %-12s %10.0f %16.0f %9.2fx\n", "pool-exact",
                batch.exact_ns, 1e9 / batch.exact_ns,
                batch.scalar_ns / batch.exact_ns);
    std::printf("  max |diff|: exact %.3g (%lld bit mismatches);"
                " steady-state allocs %.4f\n",
                batch.exact_diff, batch.exact_bit_mismatches,
                batch.steady_allocs);

    writeJson(cfg, steady_allocs_scalar, batch);
    std::printf("  wrote %s\n", cfg.json_path.c_str());

    if (cfg.smoke) {
        // Correctness gates only; absolute timings vary with the CI
        // machine and are reported, not enforced.
        bool ok = true;
        if (steady_allocs_scalar > 0.0) {
            std::fprintf(stderr,
                         "FAIL: scalar predictor allocates in steady"
                         " state (%.3f allocs/forecast)\n",
                         steady_allocs_scalar);
            ok = false;
        }
        if (batch.exact_bit_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: the batch pool is not bit-identical"
                         " to the scalar predictor (%lld mismatches,"
                         " max |diff| %.3g)\n",
                         batch.exact_bit_mismatches, batch.exact_diff);
            ok = false;
        }
        if (batch.steady_allocs > 0.0) {
            std::fprintf(stderr,
                         "FAIL: forecast pool allocates in steady state"
                         " (%.4f allocs per function-interval)\n",
                         batch.steady_allocs);
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("  smoke gates passed\n");
    }

    if (!cfg.baseline_path.empty()) {
        // Same reasoning as bench_sim's gate: the ratio of two rates
        // measured back to back in one process cancels machine speed,
        // and contention can only depress a measured speedup, so on a
        // miss we re-measure and keep the best round -- noise is shed
        // while a genuine regression fails every round.
        double best = batch.scalar_ns / batch.exact_ns;
        harness::GateResult gate = harness::gateRatio(
            "batch speedup", best, baseline.speedup_exact_vs_scalar,
            0.02);
        for (int round = 2; !gate.ok && round <= 5; ++round) {
            const BatchResult again = runBatch(cfg, histories);
            const double speedup = again.scalar_ns / again.exact_ns;
            std::printf("gate re-measure round %d: %.3f\n", round,
                        speedup);
            best = std::max(best, speedup);
            gate = harness::gateRatio("batch speedup", best,
                                      baseline.speedup_exact_vs_scalar,
                                      0.02);
        }
        std::printf("%s\n", gate.message.c_str());
        if (!gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n", gate.message.c_str());
            return 1;
        }
    }
    return 0;
}
