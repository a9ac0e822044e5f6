#include "trace/synthetic.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>

#include "common/executor.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace iceb::trace
{

namespace
{

// Burst concurrency amplitude range (log-uniform).
constexpr double kMinLevel = 1.0;
constexpr double kMaxLevel = 8.0;

// Gaussian noise on burst amplitudes, as a fraction of the level.
constexpr double kNoiseFraction = 0.10;

/** Clamp-and-round a real-valued concurrency sample to a count. */
std::uint32_t
toCount(double value)
{
    if (value <= 0.0)
        return 0;
    return static_cast<std::uint32_t>(value + 0.5);
}

} // namespace

SyntheticTraceGenerator::SyntheticTraceGenerator(SyntheticConfig config)
    : config_(std::move(config))
{
    const double total = config_.frac_multi_harmonic +
        config_.frac_period_shift + config_.frac_spiky +
        config_.frac_infrequent + config_.frac_random;
    if (total > 1.0)
        fatal("synthetic class fractions exceed 1.0");
}

std::vector<FunctionClass>
SyntheticTraceGenerator::classPlan(Rng &master) const
{
    const std::size_t n = config_.num_functions;
    const auto count_of = [n](double frac) {
        return static_cast<std::size_t>(frac * static_cast<double>(n) + 0.5);
    };
    std::vector<FunctionClass> classes;
    classes.reserve(n);
    for (std::size_t i = 0; i < count_of(config_.frac_multi_harmonic); ++i)
        classes.push_back(FunctionClass::MultiHarmonic);
    for (std::size_t i = 0; i < count_of(config_.frac_period_shift); ++i)
        classes.push_back(FunctionClass::PeriodShift);
    for (std::size_t i = 0; i < count_of(config_.frac_spiky); ++i)
        classes.push_back(FunctionClass::Spiky);
    for (std::size_t i = 0; i < count_of(config_.frac_infrequent); ++i)
        classes.push_back(FunctionClass::Infrequent);
    for (std::size_t i = 0; i < count_of(config_.frac_random); ++i)
        classes.push_back(FunctionClass::Random);
    while (classes.size() < n)
        classes.push_back(FunctionClass::Periodic);
    classes.resize(n);

    // Interleave classes deterministically so cohort ids are spread.
    Rng shuffler = master.fork(0xC1A55);
    for (std::size_t i = n; i-- > 1;) {
        const auto j = static_cast<std::size_t>(
            shuffler.uniformInt(0, static_cast<std::int64_t>(i)));
        std::swap(classes[i], classes[j]);
    }
    return classes;
}

std::size_t
SyntheticTraceGenerator::batchFunctions() const
{
    return std::max<std::size_t>(
        1, kBatchCounts / std::max<std::size_t>(1, config_.num_intervals));
}

SyntheticTraceGenerator::Cursor
SyntheticTraceGenerator::startCursor() const
{
    Cursor cursor{Rng(config_.seed), {}, {}, 0};
    cursor.classes = classPlan(cursor.master);
    return cursor;
}

bool
SyntheticTraceGenerator::nextBatch(Cursor &cursor,
                                   std::vector<FunctionSeries> &batch) const
{
    const std::size_t first = cursor.next_fn;
    if (first >= config_.num_functions)
        return false;
    const std::size_t count =
        std::min(batchFunctions(), config_.num_functions - first);

    // The class-plan shuffle forked (and thereby advanced) the master
    // stream once; every function then forks it in id order, so the
    // forks are drawn here, serially, before any series is filled.
    cursor.forks.resize(count);
    batch.resize(count);
    for (std::size_t k = 0; k < count; ++k) {
        cursor.forks[k] = cursor.master.fork(first + k + 1);
        batch[k].name = "fn-" + std::to_string(first + k);
        batch[k].concurrency.resize(config_.num_intervals);
    }
    const std::size_t workers =
        std::max(1u, std::thread::hardware_concurrency());
    TaskExecutor::shared().run(count, workers, [&](std::size_t k) {
        makeSeriesInto(cursor.classes[first + k], cursor.forks[k],
                       batch[k]);
    });
    cursor.next_fn = first + count;
    return true;
}

Trace
SyntheticTraceGenerator::generate() const
{
    Trace trace(config_.num_intervals, kMsPerMinute);
    Cursor cursor = startCursor();
    std::vector<FunctionSeries> batch;
    while (nextBatch(cursor, batch)) {
        for (FunctionSeries &series : batch)
            trace.addFunction(std::move(series));
    }
    return trace;
}

FunctionSeries
SyntheticTraceGenerator::generateSeries(FunctionClass cls,
                                        std::uint64_t stream_id) const
{
    Rng master(config_.seed);
    FunctionSeries series;
    series.name = std::string("single-") + functionClassName(cls);
    series.concurrency.resize(config_.num_intervals);
    makeSeriesInto(cls, master.fork(stream_id), series);
    return series;
}

void
SyntheticTraceGenerator::fillResourceHints(FunctionSeries &series,
                                           Rng &rng) const
{
    // Log-uniform so small functions dominate, like the Azure trace.
    const double log_mem = rng.uniform(
        std::log(static_cast<double>(config_.min_memory_mb)),
        std::log(static_cast<double>(config_.max_memory_mb)));
    series.memory_mb = static_cast<MemoryMb>(std::exp(log_mem));
    const double log_exec = rng.uniform(
        std::log(static_cast<double>(config_.min_exec_ms)),
        std::log(static_cast<double>(config_.max_exec_ms)));
    series.avg_exec_ms = static_cast<TimeMs>(std::exp(log_exec));
}

double
evaluateBurstTrain(const BurstTrain &train, double t)
{
    const double offset =
        std::fmod(t - train.phase + 1e6 * train.period, train.period);
    const double width = static_cast<double>(train.burst_len);
    if (offset >= width)
        return 0.0;
    // Raised-cosine hump: concurrency ramps up and back down across
    // the burst (the smooth multi-minute humps of the paper's
    // Fig. 4b / 5a), degenerating to a single full-height pulse at
    // width 1.
    const double shape =
        0.5 * (1.0 - std::cos(2.0 * M_PI * (offset + 0.5) / width));
    const double modulation = 1.0 +
        train.mod_depth *
            std::sin(2.0 * M_PI * t / train.mod_period +
                     train.mod_phase);
    return train.amplitude * shape * modulation;
}

void
SyntheticTraceGenerator::makeSeriesInto(FunctionClass cls, Rng rng,
                                        FunctionSeries &series) const
{
    const std::size_t n = config_.num_intervals;
    ICEB_ASSERT(series.concurrency.size() == n,
                "series buffer must be pre-sized to the horizon");
    series.cls = cls;
    std::fill(series.concurrency.begin(), series.concurrency.end(), 0u);
    fillResourceHints(series, rng);

    // Log-uniform burst amplitude: most functions invoke with small
    // concurrency, a few with large (Azure-trace-like skew).
    const double level =
        std::exp(rng.uniform(std::log(kMinLevel), std::log(kMaxLevel)));
    const double noise_sd = kNoiseFraction * level;

    const auto draw_train = [&](double amplitude) {
        BurstTrain train;
        train.period = std::exp(rng.uniform(
            std::log(config_.min_period), std::log(config_.max_period)));
        train.phase = rng.uniform(0.0, train.period);
        // Burst width in minutes: mostly multi-minute humps with a
        // tail of sharp single-minute pulses, never wider than half
        // the period.
        const double burst_draw = rng.uniform();
        int width;
        if (burst_draw < 0.15)
            width = 1;
        else if (burst_draw < 0.40)
            width = static_cast<int>(rng.uniformInt(2, 3));
        else
            width = static_cast<int>(rng.uniformInt(4, 8));
        train.burst_len = std::max(
            1, std::min(width, static_cast<int>(train.period / 2.0)));
        train.amplitude = amplitude;
        train.mod_period = rng.uniform(config_.min_mod_period,
                                       config_.max_mod_period);
        train.mod_phase = rng.uniform(0.0, 2.0 * M_PI);
        // Shallow modulation: the paper observes function behaviour
        // is stable across invocations (memory changes 0.77%,
        // speedup 1.1% on average), and invocation amplitudes drift
        // rather than jump.
        train.mod_depth = rng.uniform(0.1, 0.35);
        return train;
    };

    const auto render_trains = [&](const BurstTrain *trains,
                                   std::size_t trains_count) {
        for (std::size_t t = 0; t < n; ++t) {
            double value = 0.0;
            for (std::size_t i = 0; i < trains_count; ++i)
                value += evaluateBurstTrain(trains[i],
                                            static_cast<double>(t));
            if (value > 0.0)
                value += rng.gaussian(0.0, noise_sd);
            series.concurrency[t] = toCount(value);
        }
    };

    switch (cls) {
      case FunctionClass::Periodic: {
        const BurstTrain train = draw_train(level);
        render_trains(&train, 1);
        break;
      }
      case FunctionClass::MultiHarmonic: {
        // Several superposed trains with decaying amplitudes: the
        // concurrency spectrum carries one component per train plus
        // the burst-shape harmonics (Fig. 5a).
        const auto trains_count =
            static_cast<std::size_t>(rng.uniformInt(2, 4));
        BurstTrain trains[4];
        double amp = level;
        for (std::size_t i = 0; i < trains_count; ++i) {
            trains[i] = draw_train(std::max(1.0, amp));
            amp *= rng.uniform(0.4, 0.7);
        }
        render_trains(trains, trains_count);
        break;
      }
      case FunctionClass::PeriodShift: {
        // The burst period lengthens mid-trace (Fig. 4b): exercises
        // predictor re-convergence.
        BurstTrain before = draw_train(level);
        before.period = rng.uniform(10.0, 40.0);
        BurstTrain after = before;
        after.period = before.period * rng.uniform(1.3, 2.2);
        const std::size_t switch_at = n / 2;
        after.phase = std::fmod(
            static_cast<double>(switch_at), after.period);
        for (std::size_t t = 0; t < n; ++t) {
            const BurstTrain &train = t < switch_at ? before : after;
            double value =
                evaluateBurstTrain(train, static_cast<double>(t));
            if (value > 0.0)
                value += rng.gaussian(0.0, noise_sd);
            series.concurrency[t] = toCount(value);
        }
        break;
      }
      case FunctionClass::Spiky: {
        // A regular low-amplitude train plus rare concurrency spikes
        // (the paper's "unexpected invocation concurrency" cohort).
        BurstTrain base = draw_train(std::max(1.0, 0.5 * level));
        for (std::size_t t = 0; t < n; ++t) {
            double value =
                evaluateBurstTrain(base, static_cast<double>(t));
            if (rng.bernoulli(0.008))
                value += level * rng.uniform(5.0, 12.0);
            if (value > 0.0)
                value += rng.gaussian(0.0, noise_sd);
            series.concurrency[t] = toCount(value);
        }
        break;
      }
      case FunctionClass::Infrequent: {
        // Roughly once a day at a jittered preferred minute.
        const std::size_t day = static_cast<std::size_t>(
            24 * kMsPerHour / kMsPerMinute);
        const std::size_t preferred = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(
                                  std::min(day, n) - 1)));
        for (std::size_t start = 0; start < n; start += day) {
            const std::int64_t jitter = rng.uniformInt(-20, 20);
            const std::int64_t slot =
                static_cast<std::int64_t>(start + preferred) + jitter;
            if (slot >= 0 && static_cast<std::size_t>(slot) < n)
                series.concurrency[static_cast<std::size_t>(slot)] = 1;
        }
        break;
      }
      case FunctionClass::Random: {
        // Sparse Poisson arrivals with no structure to learn.
        const double rate = rng.uniform(0.01, 0.08);
        for (std::size_t t = 0; t < n; ++t) {
            series.concurrency[t] =
                static_cast<std::uint32_t>(rng.poisson(rate));
        }
        break;
      }
      case FunctionClass::Unknown:
        panic("cannot generate an Unknown-class series");
    }
}

SyntheticRowStream::SyntheticRowStream(SyntheticConfig config)
    : generator_(std::move(config)), cursor_(generator_.startCursor())
{
}

TimeMs
SyntheticRowStream::intervalMs() const
{
    return kMsPerMinute;
}

bool
SyntheticRowStream::next(FunctionRow &row)
{
    // The same batched generator as generate(), so function i here is
    // byte-identical to function i of the materialized trace.
    const std::size_t i = next_fn_;
    if (i == cursor_.next_fn) {
        batch_first_ = i;
        if (!generator_.nextBatch(cursor_, batch_)) {
            // Drained: no row view outlives this call, so a stream
            // kept alive after ingest holds no batch memory.
            batch_.clear();
            batch_.shrink_to_fit();
            return false;
        }
    }
    const FunctionSeries &series = batch_[i - batch_first_];
    ++next_fn_;

    row.id = static_cast<FunctionId>(i);
    row.name = series.name;
    row.cls = series.cls;
    row.memory_mb = series.memory_mb;
    row.avg_exec_ms = series.avg_exec_ms;
    row.counts = series.concurrency.data();
    row.num_intervals = series.concurrency.size();
    return true;
}

SyntheticConfig
azureScaleConfig(std::size_t num_functions, std::size_t num_intervals)
{
    SyntheticConfig config;
    config.num_functions = num_functions;
    config.num_intervals = num_intervals;
    config.seed = 0xA2A5'CA1Eull;

    // The published trace shape (Shahrad et al., Figs. 1-3): nearly
    // half of all functions are invoked about once a day, the hot
    // head is strongly periodic at sub-day periods, and a small
    // hard-to-predict remainder carries Poisson-like arrivals. The
    // fractions below put the mean at a few dozen invocations per
    // function-day with a heavy head/tail skew.
    config.frac_infrequent = 0.45;
    config.frac_multi_harmonic = 0.12;
    config.frac_period_shift = 0.04;
    config.frac_spiky = 0.04;
    config.frac_random = 0.05; // remainder (0.30) -> Periodic

    // Day-scale burst periods instead of the figure workloads'
    // within-the-hour cadence.
    config.min_period = 30.0;
    config.max_period = 720.0;
    config.min_mod_period = 180.0;
    config.max_mod_period = 1440.0;

    // Resource hints spanning the four SeBS application categories
    // (web: tiny/fast ... inference: multi-GB, tens of seconds), so
    // the matcher spreads functions across the whole pool.
    config.min_memory_mb = 128;
    config.max_memory_mb = 3008; // the Lambda/Azure allocation cap
    config.min_exec_ms = 50;
    config.max_exec_ms = 30'000;
    return config;
}

std::vector<double>
makePeriodSwitchPulseTrain(std::size_t num_intervals,
                           double period_before, double period_after,
                           std::size_t switch_interval, int burst_width,
                           double amplitude)
{
    ICEB_ASSERT(period_before > 0.0 && period_after > 0.0,
                "periods must be positive");
    BurstTrain before;
    before.period = period_before;
    before.phase = 0.0;
    before.burst_len = burst_width;
    before.amplitude = amplitude;
    before.mod_depth = 0.0;
    BurstTrain after = before;
    after.period = period_after;
    after.phase = std::fmod(static_cast<double>(switch_interval),
                            period_after);
    std::vector<double> signal(num_intervals, 0.0);
    for (std::size_t t = 0; t < num_intervals; ++t) {
        const BurstTrain &train =
            t < switch_interval ? before : after;
        signal[t] = evaluateBurstTrain(train, static_cast<double>(t));
    }
    return signal;
}

std::vector<double>
makePeriodSwitchSignal(std::size_t num_intervals, double period_before,
                       double period_after, std::size_t switch_interval,
                       double level, double amplitude)
{
    ICEB_ASSERT(period_before > 0.0 && period_after > 0.0,
                "periods must be positive");
    std::vector<double> signal(num_intervals, 0.0);
    // Keep the waveform phase-continuous across the switch so the
    // change is in periodicity only, as in the paper's Fig. 4(b).
    double phase = 0.0;
    for (std::size_t t = 0; t < num_intervals; ++t) {
        const double period =
            t < switch_interval ? period_before : period_after;
        signal[t] = level + amplitude * std::cos(phase);
        phase += 2.0 * M_PI / period;
    }
    return signal;
}

} // namespace iceb::trace
