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
constexpr std::uint32_t kNoBlock = ~std::uint32_t{0};

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
    nonzero_.push_back(0);
    return fn;
}

void
ForecastPool::observe(std::size_t fn, double concurrency)
{
    ICEB_ASSERT(fn < count_.size(), "forecast pool function out of range");
    const std::size_t w = cfg_.window;
    double *ring = ring_.data() + fn * w;
    const double value = std::max(0.0, concurrency);
    std::uint32_t &count = count_[fn];
    std::uint32_t &nonzero = nonzero_[fn];
    if (count < w) {
        ring[count++] = value;
        nonzero += value != 0.0;
        return;
    }
    std::uint32_t &head = head_[fn];
    nonzero -= ring[head] != 0.0;
    nonzero += value != 0.0;
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

    // Per lane (its forecasts_ row is already zeroed): empty and
    // silent windows forecast zeros, windows below min_samples their
    // mean, and the rest join the open block of their sample count.
    // The per-length tables are built here, serially, so workers only
    // ever read them.
    const std::size_t w = cfg_.window;
    blocks_.clear();
    open_block_.assign(w + 1, kNoBlock);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        if (nonzero_[lane] == 0)
            continue;
        const std::uint32_t count = count_[lane];
        if (count < cfg_.min_samples) {
            // math::mean's order: oldest sample first.
            const double *ring = ring_.data() + lane * w;
            double sum = 0.0;
            for (std::size_t i = 0; i < count; ++i)
                sum += ring[oldest(head_[lane], i, w)];
            double *out = forecasts_.data() + lane * horizon_;
            std::fill(out, out + horizon_,
                      std::max(0.0, sum / static_cast<double>(count)));
            continue;
        }
        ensureLengthCache(count);
        std::uint32_t &open = open_block_[count];
        if (open == kNoBlock) {
            open = static_cast<std::uint32_t>(blocks_.size());
            blocks_.push_back(Block{count, 0, {}});
        }
        Block &block = blocks_[open];
        block.lane[block.size++] = static_cast<std::uint32_t>(lane);
        if (block.size == L)
            open = kNoBlock;
    }
    if (blocks_.empty())
        return;

    // The shared executor runs block b as participant b mod T, on one
    // thread in ascending order. Every lane's output region is
    // disjoint and no value depends on the thread's scratch, so the
    // partition affects scheduling only, never values.
    TaskExecutor::shared().run(
        blocks_.size(), std::min(options_.threads, blocks_.size()),
        [this](std::size_t b) { runBlock(blocks_[b]); });
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
ForecastPool::runBlock(const Block &block)
{
    // One scratch per thread, shared by every pool that thread runs
    // blocks for, whatever their configs: a block runs to completion
    // on its thread, and no value it computes depends on what an
    // earlier block left in the buffers (each is written before it is
    // read), so of what carries over only the capacity matters.
    thread_local BlockBuffers scratch;
    const std::size_t w = cfg_.window;
    const std::size_t n = block.n;
    const LengthCache &cache = lengths_[n];
    const kernels::BlockContext ctx{
        cache.plan.get(), n,       cfg_.poly_degree, cfg_.harmonics,
        &cache.powers,    &cache.trend_system};
    scratch.block.prepare(ctx);

    // Gather each lane's window, oldest first, into columns
    // 0..size-1; the rest are zeroed so stale scratch never feeds the
    // lanes' shared (but lane-wise independent) arithmetic.
    double *dst = scratch.block.window.data();
    for (std::size_t l = 0; l < L; ++l) {
        if (l >= block.size) {
            for (std::size_t i = 0; i < n; ++i)
                dst[i * L + l] = 0.0;
            continue;
        }
        const std::size_t lane = block.lane[l];
        const double *ring = ring_.data() + lane * w;
        for (std::size_t i = 0; i < n; ++i)
            dst[i * L + l] = ring[oldest(head_[lane], i, w)];
    }

    scratch.horizon_tmp.resize(horizon_ * L);
    kernels::forecastBlock(ctx, block.size, horizon_, scratch.block,
                           scratch.horizon_tmp.data());
    for (std::size_t l = 0; l < block.size; ++l) {
        double *out = forecasts_.data() + block.lane[l] * horizon_;
        for (std::size_t step = 0; step < horizon_; ++step)
            out[step] = scratch.horizon_tmp[step * L + l];
    }
}

} // namespace iceb::predictors
