#include "predictors/forecast_pool.hh"

#include <algorithm>
#include <thread>

#include "common/executor.hh"
#include "common/logging.hh"

namespace iceb::predictors
{

namespace
{

constexpr std::uint32_t kInvalid = 0xffffffffu;
constexpr std::size_t L = kernels::kLanes;

bool
sameConfig(const FftPredictorConfig &a, const FftPredictorConfig &b)
{
    return a.window == b.window && a.harmonics == b.harmonics &&
        a.poly_degree == b.poly_degree &&
        a.min_samples == b.min_samples;
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
ForecastPool::groupFor(const FftPredictorConfig &config)
{
    for (std::size_t g = 0; g < groups_.size(); ++g)
        if (sameConfig(groups_[g].cfg, config))
            return g;
    Group group;
    group.cfg = config;
    group.lengths.resize(config.window + 1);
    groups_.push_back(std::move(group));
    return groups_.size() - 1;
}

std::size_t
ForecastPool::addFunction(const FftPredictorConfig &config)
{
    ICEB_ASSERT(config.window >= 4, "FIP window too small");
    ICEB_ASSERT(config.harmonics >= 1, "FIP needs >= 1 harmonic");
    ICEB_ASSERT(config.min_samples >= 8,
                "FIP min_samples below the kernels' 8-sample fit");

    const std::size_t g = groupFor(config);
    Group &group = groups_[g];

    std::uint32_t lane;
    if (!group.free_lanes.empty()) {
        lane = group.free_lanes.back();
        group.free_lanes.pop_back();
    } else {
        lane = static_cast<std::uint32_t>(group.lanes);
        ++group.lanes;
        group.ring.resize(group.lanes * config.window, 0.0);
        group.head.push_back(0);
        group.count.push_back(0);
        group.slot_of_lane.push_back(kInvalid);
    }
    group.head[lane] = 0;
    group.count[lane] = 0;
    std::fill(group.ring.begin() +
                  static_cast<std::ptrdiff_t>(lane * config.window),
              group.ring.begin() +
                  static_cast<std::ptrdiff_t>((lane + 1) * config.window),
              0.0);

    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(SlotRef{});
    }
    slots_[slot] = SlotRef{static_cast<std::uint32_t>(g), lane};
    group.slot_of_lane[lane] = slot;
    ++live_count_;
    return slot;
}

void
ForecastPool::removeFunction(std::size_t slot)
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    SlotRef &ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "double-retire of a pool slot");
    Group &group = groups_[ref.group];
    group.slot_of_lane[ref.lane] = kInvalid;
    group.head[ref.lane] = 0;
    group.count[ref.lane] = 0;
    group.free_lanes.push_back(ref.lane);
    ref.lane = kInvalid;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
    --live_count_;
}

void
ForecastPool::observe(std::size_t slot, double concurrency)
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "observe on a retired pool slot");
    Group &group = groups_[ref.group];
    // Mirror of FftPredictor::observe over the lane's ring column.
    const std::size_t w = group.cfg.window;
    double *ring = group.ring.data() + ref.lane * w;
    const double value = std::max(0.0, concurrency);
    std::uint32_t &count = group.count[ref.lane];
    if (count < w) {
        ring[count++] = value;
        return;
    }
    std::uint32_t &head = group.head[ref.lane];
    ring[head] = value;
    head = head + 1 == w ? 0 : head + 1;
}

void
ForecastPool::reset(std::size_t slot)
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "reset of a retired pool slot");
    Group &group = groups_[ref.group];
    group.head[ref.lane] = 0;
    group.count[ref.lane] = 0;
}

std::size_t
ForecastPool::sampleCount(std::size_t slot) const
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "sampleCount on a retired slot");
    return groups_[ref.group].count[ref.lane];
}

void
ForecastPool::ensureLengthCache(Group &group, std::size_t n)
{
    LengthCache &cache = group.lengths[n];
    if (cache.plan)
        return;
    const std::size_t degree = group.cfg.poly_degree;
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
    forecasts_.assign(slots_.size() * horizon, 0.0);
    if (live_count_ == 0)
        return;

    // Deterministic task list: groups in creation order, blocks of
    // kLanes lanes ascending. The per-length tables of every count a
    // lane will be fitted at are built serially here, so workers only
    // ever read them.
    tasks_.clear();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group &group = groups_[g];
        if (group.lanes == 0)
            continue;
        for (std::size_t lane = 0; lane < group.lanes; ++lane) {
            const std::size_t count = group.count[lane];
            if (group.slot_of_lane[lane] != kInvalid &&
                count >= group.cfg.min_samples)
                ensureLengthCache(group, count);
        }
        for (std::size_t first = 0; first < group.lanes; first += L) {
            tasks_.push_back(
                BlockTask{static_cast<std::uint32_t>(g),
                          static_cast<std::uint32_t>(first)});
        }
    }

    std::size_t threads = std::min(options_.threads, tasks_.size());
    if (threads == 0)
        threads = 1;
    workers_.resize(std::max(workers_.size(), threads));

    // The shared executor runs task i as participant i mod T, on one
    // thread in ascending order, so scratch i mod T is private to
    // whichever thread runs it -- a worker, or the caller of a call
    // from inside an executor task, which shares participants with
    // parked workers. Every lane's output region is disjoint, so the
    // partition affects scheduling only, never values.
    TaskExecutor::shared().run(
        tasks_.size(), threads, [this, threads](std::size_t i) {
            runBlock(groups_[tasks_[i].group], tasks_[i],
                     workers_[i % threads]);
        });
}

const double *
ForecastPool::forecast(std::size_t slot) const
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    ICEB_ASSERT(horizon_ >= 1, "forecast() before forecastAll()");
    return forecasts_.data() + slot * horizon_;
}

void
ForecastPool::runBlock(const Group &group, const BlockTask &task,
                       WorkerScratch &scratch)
{
    const FftPredictorConfig &cfg = group.cfg;
    const std::size_t w = cfg.window;
    const std::size_t lane_end =
        std::min<std::size_t>(task.first_lane + L, group.lanes);
    // Ring position of a lane's i-th oldest sample.
    const auto oldest = [w](std::uint32_t head, std::size_t i) {
        return head + i < w ? head + i : head + i - w;
    };

    // Mirror FftPredictor::forecastHorizon's prologue per lane (the
    // forecasts_ row is already zeroed, like its out.assign): empty
    // and silent windows forecast zeros, windows below min_samples
    // their mean, and the rest wait for a kernel pass at n = count.
    std::uint32_t fit_count[L] = {};
    for (std::size_t lane = task.first_lane; lane < lane_end; ++lane) {
        if (group.slot_of_lane[lane] == kInvalid)
            continue;
        const std::uint32_t count = group.count[lane];
        const double *ring = group.ring.data() + lane * w;
        bool all_zero = true;
        for (std::size_t i = 0; i < count; ++i) {
            if (ring[i] != 0.0) {
                all_zero = false;
                break;
            }
        }
        if (all_zero)
            continue;
        if (count >= cfg.min_samples) {
            fit_count[lane - task.first_lane] = count;
            continue;
        }
        // math::mean's order: oldest sample first.
        double sum = 0.0;
        for (std::size_t i = 0; i < count; ++i)
            sum += ring[oldest(group.head[lane], i)];
        double *out = forecasts_.data() +
            group.slot_of_lane[lane] * horizon_;
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
        const LengthCache &cache = group.lengths[n];
        const kernels::BlockContext ctx{
            cache.plan.get(), n,       cfg.poly_degree, cfg.harmonics,
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
            const std::size_t lane = task.first_lane + l;
            const double *ring = group.ring.data() + lane * w;
            for (std::size_t i = 0; i < n; ++i)
                dst[i * L + l] = ring[oldest(group.head[lane], i)];
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
            const std::uint32_t slot =
                group.slot_of_lane[task.first_lane + l];
            double *out = forecasts_.data() + slot * horizon_;
            for (std::size_t step = 0; step < horizon_; ++step)
                out[step] = scratch.horizon_tmp[step * L + l];
        }
    }
}

} // namespace iceb::predictors
