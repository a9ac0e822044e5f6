#include "predictors/forecast_pool.hh"

#include <algorithm>
#include <cmath>
#include <thread>

#include "common/executor.hh"
#include "common/logging.hh"
#include "math/stats.hh"

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
        a.min_samples == b.min_samples &&
        a.incremental_spectrum == b.incremental_spectrum &&
        a.resync_every == b.resync_every;
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
    groups_.push_back(std::move(group));
    return groups_.size() - 1;
}

std::size_t
ForecastPool::addFunction(const FftPredictorConfig &config)
{
    ICEB_ASSERT(config.window >= 4, "FIP window too small");
    ICEB_ASSERT(config.harmonics >= 1, "FIP needs >= 1 harmonic");
    ICEB_ASSERT(config.resync_every >= 1, "FIP resync cadence too small");

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
        if (config.incremental_spectrum)
            group.scalar.emplace_back();
    }
    group.head[lane] = 0;
    group.count[lane] = 0;
    std::fill(group.ring.begin() +
                  static_cast<std::ptrdiff_t>(lane * config.window),
              group.ring.begin() +
                  static_cast<std::ptrdiff_t>((lane + 1) * config.window),
              0.0);
    if (config.incremental_spectrum)
        group.scalar[lane] = std::make_unique<FftPredictor>(config);

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
    if (group.cfg.incremental_spectrum)
        group.scalar[ref.lane].reset();
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
    if (group.cfg.incremental_spectrum) {
        group.scalar[ref.lane]->observe(concurrency);
        return;
    }
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
    if (group.cfg.incremental_spectrum)
        group.scalar[ref.lane]->reset();
}

std::size_t
ForecastPool::sampleCount(std::size_t slot) const
{
    ICEB_ASSERT(slot < slots_.size(), "forecast pool slot out of range");
    const SlotRef ref = slots_[slot];
    ICEB_ASSERT(ref.lane != kInvalid, "sampleCount on a retired slot");
    const Group &group = groups_[ref.group];
    if (group.cfg.incremental_spectrum)
        return group.scalar[ref.lane]->sampleCount();
    return group.count[ref.lane];
}

void
ForecastPool::ensureGroupCaches(Group &group)
{
    if (group.caches_ready)
        return;
    const FftPredictorConfig &cfg = group.cfg;
    // Only full-window lanes of non-incremental groups with a usable
    // spectrum ever run the batched pipeline; other groups forecast
    // through the scalar mirror and need no shared tables.
    if (cfg.incremental_spectrum || cfg.window < 8 ||
        cfg.window < cfg.min_samples)
        return;
    group.plan = math::fftPlanFor(cfg.window);
    math::buildSeriesPowerTable(cfg.window, cfg.poly_degree,
                                group.powers);
    // The polyfit normal matrix depends only on (window, degree):
    // factor it once and replay per lane.
    const std::size_t terms = cfg.poly_degree + 1;
    std::vector<double> normal(terms * terms);
    for (std::size_t r = 0; r < terms; ++r)
        for (std::size_t c = 0; c < terms; ++c)
            normal[r * terms + c] = group.powers.powers[r + c];
    group.trend_system.factor(normal.data(), terms);
    group.caches_ready = true;
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
    // kLanes lanes ascending. Shared caches are built serially here
    // so workers only ever read them.
    tasks_.clear();
    for (std::size_t g = 0; g < groups_.size(); ++g) {
        Group &group = groups_[g];
        if (group.lanes == 0)
            continue;
        ensureGroupCaches(group);
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
ForecastPool::runBlock(const Group &group_const, const BlockTask &task,
                       WorkerScratch &scratch)
{
    // Lanes are thread-private even though the group is shared:
    // incremental lanes mutate only their own predictor, batch lanes
    // only read the ring and shared caches.
    Group &group = const_cast<Group &>(group_const);
    const FftPredictorConfig &cfg = group.cfg;
    const std::size_t w = cfg.window;
    const std::size_t lane_end =
        std::min<std::size_t>(task.first_lane + L, group.lanes);

    if (cfg.incremental_spectrum) {
        for (std::size_t lane = task.first_lane; lane < lane_end;
             ++lane) {
            const std::uint32_t slot = group.slot_of_lane[lane];
            if (slot == kInvalid)
                continue;
            group.scalar[lane]->forecastHorizon(horizon_,
                                                scratch.horizon_tmp);
            std::copy(scratch.horizon_tmp.begin(),
                      scratch.horizon_tmp.end(),
                      forecasts_.begin() +
                          static_cast<std::ptrdiff_t>(slot * horizon_));
        }
        return;
    }

    const bool can_batch =
        group.caches_ready && w >= 8 && w >= cfg.min_samples;
    bool active[L] = {};
    bool any_active = false;
    if (can_batch)
        scratch.block.prepare(kernels::BlockContext{
            group.plan.get(), w, cfg.poly_degree, cfg.harmonics,
            &group.powers, &group.trend_system, options_.fast_path});

    for (std::size_t lane = task.first_lane; lane < lane_end; ++lane) {
        const std::size_t l = lane - task.first_lane;
        const std::uint32_t slot = group.slot_of_lane[lane];
        if (slot == kInvalid)
            continue;
        double *out = forecasts_.data() + slot * horizon_;
        const std::uint32_t count = group.count[lane];
        if (!can_batch || count < w) {
            // Warm-up / short-window lanes: scalar mirror (the
            // forecasts_ row is already zeroed, matching the scalar
            // out.assign(horizon, 0.0) prologue).
            forecastLaneScalar(group, static_cast<std::uint32_t>(lane),
                               scratch, out);
            continue;
        }
        // Gather the full window, oldest first, into the lane column;
        // a silent window forecasts silence without entering the
        // batch (the scalar all-zero fast path).
        const double *ring = group.ring.data() + lane * w;
        const std::uint32_t head = group.head[lane];
        double *dst = scratch.block.window.data();
        bool all_zero = true;
        for (std::size_t i = 0; i < w; ++i) {
            std::size_t pos = head + i;
            if (pos >= w)
                pos -= w;
            const double v = ring[pos];
            if (v != 0.0)
                all_zero = false;
            dst[i * L + l] = v;
        }
        if (all_zero)
            continue;
        active[l] = true;
        any_active = true;
    }
    if (!any_active)
        return;

    // Zero inactive columns so stale scratch never feeds the lanes'
    // shared (but lane-wise independent) arithmetic.
    double *dst = scratch.block.window.data();
    for (std::size_t l = 0; l < L; ++l) {
        if (active[l])
            continue;
        for (std::size_t i = 0; i < w; ++i)
            dst[i * L + l] = 0.0;
    }

    const kernels::BlockContext ctx{
        group.plan.get(), w, cfg.poly_degree, cfg.harmonics,
        &group.powers, &group.trend_system, options_.fast_path};
    scratch.horizon_tmp.resize(horizon_ * L);
    kernels::forecastBlock(ctx, active, horizon_, scratch.block,
                           scratch.horizon_tmp.data());
    for (std::size_t lane = task.first_lane; lane < lane_end; ++lane) {
        const std::size_t l = lane - task.first_lane;
        if (!active[l])
            continue;
        const std::uint32_t slot = group.slot_of_lane[lane];
        double *out = forecasts_.data() + slot * horizon_;
        for (std::size_t step = 0; step < horizon_; ++step)
            out[step] = scratch.horizon_tmp[step * L + l];
    }
}

void
ForecastPool::forecastLaneScalar(const Group &group, std::uint32_t lane,
                                 WorkerScratch &scratch,
                                 double *out) const
{
    // Line-for-line mirror of FftPredictor::forecastHorizon (the
    // caller already zeroed the output row).
    const FftPredictorConfig &cfg = group.cfg;
    const std::size_t w = cfg.window;
    const std::size_t size = group.count[lane];
    if (size == 0)
        return;
    const double *ring = group.ring.data() + lane * w;
    bool all_zero = true;
    for (std::size_t i = 0; i < size; ++i) {
        if (ring[i] != 0.0) {
            all_zero = false;
            break;
        }
    }
    if (all_zero)
        return;

    scratch.window.resize(size);
    const std::uint32_t head = group.head[lane];
    if (size < w || head == 0) {
        std::copy(ring, ring + size, scratch.window.begin());
    } else {
        const std::size_t tail = w - head;
        std::copy(ring + head, ring + w, scratch.window.begin());
        std::copy(ring, ring + head, scratch.window.begin() + tail);
    }
    if (size < cfg.min_samples) {
        std::fill(out, out + horizon_,
                  std::max(0.0, math::mean(scratch.window)));
        return;
    }

    const std::size_t n = size;
    math::polyfitSeries(scratch.window.data(), n, cfg.poly_degree,
                        scratch.trend, scratch.poly_ws);
    math::detrendInto(scratch.window.data(), n, scratch.trend,
                      scratch.residual);
    math::decomposeForExtrapolation(scratch.residual.data(), n,
                                    cfg.harmonics, scratch.harmonics,
                                    scratch.harm_ws);
    for (std::size_t step = 0; step < horizon_; ++step) {
        const double t = static_cast<double>(n + step);
        const double forecast = scratch.trend.evaluate(t) +
            math::evaluateHarmonics(scratch.harmonics, t);
        out[step] = std::max(0.0, forecast);
    }
}

} // namespace iceb::predictors
