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

/** Per-thread block scratch: kernel buffers + the SoA horizon output. */
struct BlockBuffers
{
    kernels::BlockScratch block;
    std::vector<double> horizon_tmp;
};

/** Ring position of a lane's i-th oldest sample. */
std::size_t
oldest(std::uint32_t head, std::size_t i, std::size_t window)
{
    return head + i < window ? head + i : head + i - window;
}

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
    ICEB_ASSERT(count_ == 0 && next_lane_ == 0 && horizon_ == 0,
                "addFunction after the pool's first observe or "
                "forecastAll");
    ICEB_ASSERT(config.window >= 4, "FIP window too small");
    ICEB_ASSERT(config.harmonics >= 1, "FIP needs >= 1 harmonic");
    ICEB_ASSERT(config.min_samples >= 8,
                "FIP min_samples below the kernels' 8-sample fit");
    const std::size_t fn = lanes();
    if (fn == 0)
        cfg_ = config;
    ICEB_ASSERT(config == cfg_, "a ForecastPool holds one FIP config");

    ring_.resize((fn + 1) * config.window, 0.0);
    nonzero_.push_back(0);
    return fn;
}

void
ForecastPool::observe(std::size_t fn, double concurrency)
{
    ICEB_ASSERT(fn == next_lane_ && fn < lanes(),
                "observe must name lanes 0..L-1 in order, once each");
    const std::size_t w = cfg_.window;
    const bool full = count_ == w;
    double &slot = ring_[fn * w + (full ? head_ : count_)];
    const double value = std::max(0.0, concurrency);
    // A slot not yet filled holds 0, so warm-up drops nothing.
    nonzero_[fn] -= slot != 0.0;
    nonzero_[fn] += value != 0.0;
    slot = value;
    if (++next_lane_ < lanes())
        return;
    next_lane_ = 0; // the interval's last lane advances every window
    if (full)
        head_ = head_ + 1 == w ? 0 : head_ + 1;
    else
        ++count_;
}

void
ForecastPool::buildLengthCache()
{
    const std::size_t n = count_;
    const std::size_t degree = cfg_.poly_degree;
    cache_.n = n;
    cache_.plan = math::fftPlanFor(n);
    math::buildSeriesPowerTable(n, degree, cache_.powers);
    // The polyfit normal matrix depends only on (n, degree): factor
    // it once and replay it per lane.
    const std::size_t terms = degree + 1;
    std::vector<double> normal(terms * terms);
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            normal[r * terms + c] = cache_.powers.powers[r + c];
    cache_.trend_system.factor(normal.data(), terms);
}

void
ForecastPool::forecastAll(std::size_t horizon)
{
    ICEB_ASSERT(horizon >= 1, "horizon must be positive");
    ICEB_ASSERT(next_lane_ == 0,
                "forecastAll inside an interval: lanes from lane ",
                next_lane_, " on are not observed yet");
    horizon_ = horizon;
    const std::size_t lanes = this->lanes();
    forecasts_.assign(lanes * horizon, 0.0);

    // Per lane (its forecasts_ row is already zeroed): empty and
    // silent windows forecast zeros, windows below min_samples their
    // mean, and the rest are fitted.
    const std::size_t w = cfg_.window;
    fitted_.clear();
    fitted_.reserve(lanes);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (nonzero_[lane] == 0)
            continue;
        if (count_ >= cfg_.min_samples) {
            fitted_.push_back(static_cast<std::uint32_t>(lane));
            continue;
        }
        // math::mean's order: oldest sample first (a window shorter
        // than min_samples wraps before it is ever fitted).
        const double *ring = ring_.data() + lane * w;
        double sum = 0.0;
        for (std::size_t i = 0; i < count_; ++i)
            sum += ring[oldest(head_, i, w)];
        double *out = forecasts_.data() + lane * horizon_;
        std::fill(out, out + horizon_,
                  std::max(0.0, sum / static_cast<double>(count_)));
    }
    if (fitted_.empty())
        return;
    // Built here, serially, so workers only ever read the tables.
    if (cache_.n != count_)
        buildLengthCache();

    // The shared executor runs block b as participant b mod T, on one
    // thread in ascending order. Every lane's output region is
    // disjoint and no value depends on the thread's scratch, so the
    // partition affects scheduling only, never values.
    const std::size_t blocks = (fitted_.size() + L - 1) / L;
    TaskExecutor::shared().run(blocks, std::min(options_.threads, blocks),
                               [this](std::size_t b) { runBlock(b); });
}

const double *
ForecastPool::forecast(std::size_t fn) const
{
    ICEB_ASSERT(horizon_ >= 1, "forecast() before forecastAll()");
    ICEB_ASSERT(fn < lanes(), "forecast pool function out of range");
    return forecasts_.data() + fn * horizon_;
}

void
ForecastPool::runBlock(std::size_t block)
{
    // One scratch per thread, shared by every pool that thread runs
    // blocks for, whatever their configs: a block runs to completion
    // on its thread, and no value it computes depends on what an
    // earlier block left in the buffers (each is written before it is
    // read), so of what carries over only the capacity matters.
    thread_local BlockBuffers scratch;
    const std::size_t w = cfg_.window;
    const std::size_t n = count_;
    const std::uint32_t *lane = fitted_.data() + block * L;
    const std::size_t size = std::min(L, fitted_.size() - block * L);
    const kernels::BlockContext ctx{
        cache_.plan.get(), n,       cfg_.poly_degree, cfg_.harmonics,
        &cache_.powers,    &cache_.trend_system};
    scratch.block.prepare(ctx);

    // Gather each lane's window, oldest first, into columns
    // 0..size-1; the rest are zeroed so stale scratch never feeds the
    // lanes' shared (but lane-wise independent) arithmetic.
    double *dst = scratch.block.window.data();
    for (std::size_t l = 0; l < L; ++l) {
        if (l >= size) {
            for (std::size_t i = 0; i < n; ++i)
                dst[i * L + l] = 0.0;
            continue;
        }
        const double *ring = ring_.data() + lane[l] * w;
        for (std::size_t i = 0; i < n; ++i)
            dst[i * L + l] = ring[oldest(head_, i, w)];
    }

    scratch.horizon_tmp.resize(horizon_ * L);
    kernels::forecastBlock(ctx, size, horizon_, scratch.block,
                           scratch.horizon_tmp.data());
    for (std::size_t l = 0; l < size; ++l) {
        double *out = forecasts_.data() + lane[l] * horizon_;
        for (std::size_t step = 0; step < horizon_; ++step)
            out[step] = scratch.horizon_tmp[step * L + l];
    }
}

} // namespace iceb::predictors
