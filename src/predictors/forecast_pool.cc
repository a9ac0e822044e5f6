#include "predictors/forecast_pool.hh"

#include <algorithm>
#include <thread>

#include "common/executor.hh"
#include "common/logging.hh"

namespace iceb::predictors
{

namespace
{

constexpr std::size_t L = kernels::kLanes;

} // namespace

ForecastPool::ForecastPool(ForecastPoolOptions options)
    : options_(options)
{
    if (options_.threads == 0)
        options_.threads =
            std::max(1u, std::thread::hardware_concurrency());
}

std::size_t
ForecastPool::addFunction(const FftPredictorConfig &config)
{
    ICEB_ASSERT(config.window >= 4, "FIP window too small");
    ICEB_ASSERT(config.harmonics >= 1, "FIP needs >= 1 harmonic");
    ICEB_ASSERT(config.min_samples >= 8,
                "FIP min_samples below the kernels' 8-sample fit");
    const std::size_t fn = count_.size();
    if (fn == 0) {
        cfg_ = config;
        lengths_.resize(config.window + 1);
    }
    ICEB_ASSERT(config == cfg_, "a ForecastPool holds one FIP config");

    ring_.resize((fn + 1) * config.window, 0.0);
    head_.push_back(0);
    count_.push_back(0);
    return fn;
}

void
ForecastPool::observe(std::size_t fn, double concurrency)
{
    ICEB_ASSERT(fn < count_.size(), "forecast pool function out of range");
    // Mirror of FftPredictor::observe over the lane's ring column.
    const std::size_t w = cfg_.window;
    double *ring = ring_.data() + fn * w;
    const double value = std::max(0.0, concurrency);
    std::uint32_t &count = count_[fn];
    if (count < w) {
        ring[count++] = value;
        return;
    }
    std::uint32_t &head = head_[fn];
    ring[head] = value;
    head = head + 1 == w ? 0 : head + 1;
}

void
ForecastPool::ensureLengthCache(std::size_t n)
{
    LengthCache &cache = lengths_[n];
    if (cache.plan)
        return;
    const std::size_t degree = cfg_.poly_degree;
    cache.plan = math::fftPlanFor(n);
    math::buildSeriesPowerTable(n, degree, cache.powers);
    // The polyfit normal matrix depends only on (n, degree): factor
    // it once and replay it per lane.
    const std::size_t terms = degree + 1;
    std::vector<double> normal(terms * terms);
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            normal[r * terms + c] = cache.powers.powers[r + c];
    cache.trend_system.factor(normal.data(), terms);
}

void
ForecastPool::forecastAll(std::size_t horizon)
{
    ICEB_ASSERT(horizon >= 1, "horizon must be positive");
    horizon_ = horizon;
    const std::size_t lanes = count_.size();
    forecasts_.assign(lanes * horizon, 0.0);
    if (lanes == 0)
        return;

    // The per-length tables of every count a lane will be fitted at
    // are built serially here, so workers only ever read them.
    for (const std::uint32_t count : count_)
        if (count >= cfg_.min_samples)
            ensureLengthCache(count);

    const std::size_t blocks = (lanes + L - 1) / L;
    const std::size_t threads = std::min(options_.threads, blocks);
    workers_.resize(std::max(workers_.size(), threads));

    // The shared executor runs block b as participant b mod T, on one
    // thread in ascending order, so scratch b mod T is private to
    // whichever thread runs it -- a worker, or the caller of a call
    // from inside an executor task, which shares participants with
    // parked workers. Every lane's output region is disjoint, so the
    // partition affects scheduling only, never values.
    TaskExecutor::shared().run(blocks, threads,
                               [this, threads](std::size_t b) {
                                   runBlock(b, workers_[b % threads]);
                               });
}

const double *
ForecastPool::forecast(std::size_t fn) const
{
    ICEB_ASSERT(horizon_ >= 1, "forecast() before forecastAll()");
    ICEB_ASSERT(fn < forecasts_.size() / horizon_,
                "forecast() of a function added after forecastAll()");
    return forecasts_.data() + fn * horizon_;
}

void
ForecastPool::runBlock(std::size_t block, WorkerScratch &scratch)
{
    const std::size_t w = cfg_.window;
    const std::size_t first_lane = block * L;
    const std::size_t lane_end =
        std::min(first_lane + L, count_.size());
    // Ring position of a lane's i-th oldest sample.
    const auto oldest = [w](std::uint32_t head, std::size_t i) {
        return head + i < w ? head + i : head + i - w;
    };

    // Mirror FftPredictor::forecastHorizon's prologue per lane (the
    // forecasts_ row is already zeroed, like its out.assign): empty
    // and silent windows forecast zeros, windows below min_samples
    // their mean, and the rest wait for a kernel pass at n = count.
    std::uint32_t fit_count[L] = {};
    for (std::size_t lane = first_lane; lane < lane_end; ++lane) {
        const std::uint32_t count = count_[lane];
        const double *ring = ring_.data() + lane * w;
        bool all_zero = true;
        for (std::size_t i = 0; i < count; ++i) {
            if (ring[i] != 0.0) {
                all_zero = false;
                break;
            }
        }
        if (all_zero)
            continue;
        if (count >= cfg_.min_samples) {
            fit_count[lane - first_lane] = count;
            continue;
        }
        // math::mean's order: oldest sample first.
        double sum = 0.0;
        for (std::size_t i = 0; i < count; ++i)
            sum += ring[oldest(head_[lane], i)];
        double *out = forecasts_.data() + lane * horizon_;
        std::fill(out, out + horizon_,
                  std::max(0.0, sum / static_cast<double>(count)));
    }

    // One kernel pass per distinct sample count; an IceBreaker pool
    // observes every lane every interval, so it runs exactly one.
    scratch.horizon_tmp.resize(horizon_ * L);
    for (std::size_t first = 0; first < L; ++first) {
        const std::size_t n = fit_count[first];
        if (n == 0)
            continue;
        const LengthCache &cache = lengths_[n];
        const kernels::BlockContext ctx{
            cache.plan.get(), n,       cfg_.poly_degree, cfg_.harmonics,
            &cache.powers,    &cache.trend_system};
        scratch.block.prepare(ctx);

        // Gather each n-sample lane's window, oldest first, into its
        // column; every other column is zeroed so stale scratch never
        // feeds the lanes' shared (but lane-wise independent)
        // arithmetic.
        bool active[L] = {};
        double *dst = scratch.block.window.data();
        for (std::size_t l = first; l < L; ++l) {
            if (fit_count[l] != n)
                continue;
            active[l] = true;
            fit_count[l] = 0;
            const std::size_t lane = first_lane + l;
            const double *ring = ring_.data() + lane * w;
            for (std::size_t i = 0; i < n; ++i)
                dst[i * L + l] = ring[oldest(head_[lane], i)];
        }
        for (std::size_t l = 0; l < L; ++l) {
            if (active[l])
                continue;
            for (std::size_t i = 0; i < n; ++i)
                dst[i * L + l] = 0.0;
        }

        kernels::forecastBlock(ctx, active, horizon_, scratch.block,
                               scratch.horizon_tmp.data());
        for (std::size_t l = first; l < L; ++l) {
            if (!active[l])
                continue;
            double *out = forecasts_.data() + (first_lane + l) * horizon_;
            for (std::size_t step = 0; step < horizon_; ++step)
                out[step] = scratch.horizon_tmp[step * L + l];
        }
    }
}

} // namespace iceb::predictors
