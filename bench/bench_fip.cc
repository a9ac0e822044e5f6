/**
 * @file
 * FIP microbenchmark: what batching buys. The ForecastPool (the
 * forecaster IceBreaker runs) forecasts a fleet in dense 8-lane
 * blocks; the baseline is the same fleet as one FftPredictor per
 * function, each a one-function pool whose forecasts run the same
 * kernels as one-lane blocks.
 *
 * The batch row reports ns/forecast and forecasts/sec for the
 * one-lane fleet and for the pool at --batch-functions scale (default
 * 10000, accepted up to 1M). Each function's history comes from
 * trace::SyntheticTraceGenerator at fig6's configuration (the default
 * SyntheticConfig with min_memory_mb = 256), so the windows carry the
 * spectral peaks, silences and bursts the pool fits in a fig6 run. The
 * row also checks that every lane's forecast is bit-identical to its
 * one-lane forecast (a lane's result must not depend on the block it
 * is packed into) and that a steady-state pool round allocates
 * nothing.
 *
 * The forecaster's agreement with independent references is tested
 * in ctest: ForecastPoolTest's suites hold it bit for bit to math's
 * scalar stages, and FftPredictorTest.MatchesSeedPredictor to the
 * seed implementation.
 *
 * Flags:
 *   --window N                      FIP window (default 120, non-pow2)
 *   --batch-functions N             fleet size (default 10000, up to 1M)
 *   --batch-intervals N             timed rounds (default 3)
 *   --json PATH                     write the JSON report to PATH
 *                                   (none without it; pass
 *                                   BENCH_fip.json to regenerate
 *                                   the committed baseline)
 *   --smoke                         small fleet + correctness gates:
 *                                   exits non-zero if a lane's pool
 *                                   forecast differs from its one-lane
 *                                   forecast by any bit, or the pool
 *                                   allocates in steady state.
 *                                   Absolute timings are NOT gated
 *                                   (CI noise).
 *   --baseline PATH                 gate the batch pool-vs-one-lane
 *                                   speedup against a committed
 *                                   BENCH_fip.json: re-runs at the
 *                                   committed batch scale (best of 5
 *                                   rounds) and fails if more than 2%
 *                                   below it. Refuses loudly if the
 *                                   committed config digest does not
 *                                   match its recorded window/horizon/
 *                                   batch geometry and this build's
 *                                   input source and denominator
 *                                   (stale baseline) or the baseline's
 *                                   window and horizon differ from
 *                                   this run's.
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
    std::string json_path; //!< empty: no JSON report
    std::string baseline_path;
    bool smoke = false;
};

/** The batch row's input source, hashed into config_digest. */
constexpr const char *kBatchInputs = "fig6-generator";

/** The speedup's denominator, hashed into config_digest. */
constexpr const char *kDenominator = "one-lane-pool";

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

// ---------------------------------------------------------------------------
// Batch row: the ForecastPool's 8-lane blocks vs a fleet of one-lane
// FftPredictors at --batch-functions scale.
// ---------------------------------------------------------------------------

struct BatchResult
{
    std::size_t functions = 0;
    std::size_t intervals = 0;
    /** Functions the one-lane fleet actually timed/verified (capped
     * so a 1M-function batch run does not also build 1M predictor
     * objects; per-forecast one-lane cost is scale-free). */
    std::size_t one_lane_sample = 0;
    double one_lane_ns = 0.0;
    double exact_ns = 0.0;
    double exact_diff = 0.0; //!< max |pool - one-lane| (gate: 0)
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
    r.one_lane_sample =
        std::min<std::size_t>(cfg.batch_functions, 65536);

    const std::vector<trace::FunctionSeries> &series =
        histories.functions();
    const auto valueAt = [&](std::size_t fn, std::size_t t) {
        return static_cast<double>(series[fn].concurrency[t]);
    };

    FftPredictorConfig fip;
    fip.window = cfg.window;

    ForecastPool pool_exact;
    std::vector<FftPredictor> one_lane;
    one_lane.reserve(r.one_lane_sample);
    for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
        pool_exact.addFunction(fip);
        if (fn < r.one_lane_sample)
            one_lane.emplace_back(fip);
    }

    // Fill every history to a full window (untimed), then one warm
    // forecast per mode so workspace capacities converge before the
    // timed rounds.
    const std::size_t warm = warmIntervals(cfg);
    for (std::size_t t = 0; t < warm; ++t) {
        for (std::size_t fn = 0; fn < cfg.batch_functions; ++fn) {
            const double v = valueAt(fn, t);
            pool_exact.observe(fn, v);
            if (fn < r.one_lane_sample)
                one_lane[fn].observe(v);
        }
    }
    pool_exact.forecastAll(cfg.horizon);
    std::vector<double> out;
    for (std::size_t fn = 0; fn < r.one_lane_sample; ++fn)
        one_lane[fn].forecastHorizon(cfg.horizon, out);

    // Timed rounds: observe one interval per function, then forecast
    // the fleet. Both modes walk the same observation stream so the
    // post-timing states line up for the equivalence sweep.
    const std::size_t rounds = cfg.batch_intervals;

    auto t0 = Clock::now();
    for (std::size_t rd = 0; rd < rounds; ++rd) {
        for (std::size_t fn = 0; fn < r.one_lane_sample; ++fn) {
            one_lane[fn].observe(valueAt(fn, warm + rd));
            one_lane[fn].forecastHorizon(cfg.horizon, out);
        }
    }
    auto t1 = Clock::now();
    r.one_lane_ns =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(r.one_lane_sample * rounds);

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

    // Equivalence sweep over a bounded subset (the one-lane forecast
    // is recomputed from the identical post-timing history; the
    // pool's last forecastAll covers the same history).
    const std::size_t check =
        std::min<std::size_t>(r.one_lane_sample, 4096);
    for (std::size_t fn = 0; fn < check; ++fn) {
        one_lane[fn].forecastHorizon(cfg.horizon, out);
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
 * FNV-1a digest of the geometry, input source and denominator a batch
 * measurement depends on. The baseline gate refuses to compare runs
 * whose digests disagree, so a committed BENCH_fip.json can never
 * silently gate a differently configured run.
 */
std::string
configDigest(std::size_t window, std::size_t horizon,
             std::size_t batch_functions, std::size_t batch_intervals)
{
    char text[192];
    std::snprintf(text, sizeof(text),
                  "window=%zu;horizon=%zu;batch_functions=%zu;"
                  "batch_intervals=%zu;inputs=%s;denominator=%s",
                  window, horizon, batch_functions, batch_intervals,
                  kBatchInputs, kDenominator);
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
    /** Read after the digest check, so a stale file is named stale. */
    std::optional<double> speedup_exact_vs_one_lane;
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
    base.speedup_exact_vs_one_lane =
        harness::findJsonNumber(text, "speedup_exact_vs_one_lane");
    const std::optional<std::string> digest =
        harness::findJsonString(text, "config_digest");
    if (!digest)
        missing("config_digest");
    base.digest = *digest;
    return base;
}

void
writeJson(const BenchConfig &cfg, const BatchResult &batch)
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
    out << "  \"batch\": {\n";
    out << "    \"functions\": " << batch.functions << ",\n";
    out << "    \"intervals\": " << batch.intervals << ",\n";
    out << "    \"one_lane_sample_functions\": "
        << batch.one_lane_sample << ",\n";
    out << "    \"one_lane_ns_per_forecast\": " << batch.one_lane_ns
        << ",\n";
    out << "    \"exact_ns_per_forecast\": " << batch.exact_ns << ",\n";
    out << "    \"one_lane_forecasts_per_sec\": "
        << 1e9 / batch.one_lane_ns << ",\n";
    out << "    \"exact_forecasts_per_sec\": " << 1e9 / batch.exact_ns
        << ",\n";
    out << "    \"speedup_exact_vs_one_lane\": "
        << batch.one_lane_ns / batch.exact_ns << ",\n";
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
                         " does not match its recorded geometry,"
                         " inputs and denominator (expected %s) --"
                         " regenerate the baseline\n",
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
        if (!baseline.speedup_exact_vs_one_lane) {
            std::fprintf(stderr,
                         "FAIL: baseline %s has no"
                         " speedup_exact_vs_one_lane -- regenerate it"
                         " with a full run\n",
                         cfg.baseline_path.c_str());
            return 1;
        }
        cfg.batch_functions = baseline.batch_functions;
        cfg.batch_intervals = baseline.batch_intervals;
    }

    const trace::Trace histories = fleetHistories(cfg);
    const BatchResult batch = runBatch(cfg, histories);

    std::printf("bench_fip: window %zu (non-pow2: %s), horizon %zu\n",
                cfg.window,
                math::isPowerOfTwo(cfg.window) ? "no" : "yes",
                cfg.horizon);
    std::printf("batch: %zu functions x %zu intervals of %s histories"
                " (one-lane fleet sampled at %zu)\n",
                batch.functions, batch.intervals, kBatchInputs,
                batch.one_lane_sample);
    std::printf("  %-12s %10s %16s %10s\n", "mode", "ns/fcast",
                "forecasts/sec", "speedup");
    std::printf("  %-12s %10.0f %16.0f %10s\n", "one-lane",
                batch.one_lane_ns, 1e9 / batch.one_lane_ns, "1.00x");
    std::printf("  %-12s %10.0f %16.0f %9.2fx\n", "pool-exact",
                batch.exact_ns, 1e9 / batch.exact_ns,
                batch.one_lane_ns / batch.exact_ns);
    std::printf("  max |diff|: exact %.3g (%lld bit mismatches);"
                " steady-state allocs %.4f\n",
                batch.exact_diff, batch.exact_bit_mismatches,
                batch.steady_allocs);

    if (!cfg.json_path.empty()) {
        writeJson(cfg, batch);
        std::printf("  wrote %s\n", cfg.json_path.c_str());
    }

    if (cfg.smoke) {
        // Correctness gates only; absolute timings vary with the CI
        // machine and are reported, not enforced.
        bool ok = true;
        if (batch.exact_bit_mismatches != 0) {
            std::fprintf(stderr,
                         "FAIL: a lane's forecast depends on its block:"
                         " the pool's 8-lane forecasts differ from the"
                         " same functions' one-lane forecasts (%lld"
                         " mismatches, max |diff| %.3g)\n",
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
        double best = batch.one_lane_ns / batch.exact_ns;
        const double committed = *baseline.speedup_exact_vs_one_lane;
        harness::GateResult gate = harness::gateRatio(
            "batch vs one-lane speedup", best, committed, 0.02);
        for (int round = 2; !gate.ok && round <= 5; ++round) {
            const BatchResult again = runBatch(cfg, histories);
            const double speedup = again.one_lane_ns / again.exact_ns;
            std::printf("gate re-measure round %d: %.3f\n", round,
                        speedup);
            best = std::max(best, speedup);
            gate = harness::gateRatio("batch vs one-lane speedup", best,
                                      committed, 0.02);
        }
        std::printf("%s\n", gate.message.c_str());
        if (!gate.ok) {
            std::fprintf(stderr, "FAIL: %s\n", gate.message.c_str());
            return 1;
        }
    }
    return 0;
}
