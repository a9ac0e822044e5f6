#include "core/icebreaker.hh"

#include <algorithm>
#include <cmath>

#include "obs/probes.hh"
#include "obs/recorder.hh"
#include "policies/policy_util.hh"

namespace iceb::core
{

IceBreakerPolicy::IceBreakerPolicy(IceBreakerConfig config)
    : config_(config)
{
}

void
IceBreakerPolicy::initialize(const sim::SimContext &ctx)
{
    Policy::initialize(ctx);
    // Provider cap that normalises M_r (AWS Lambda: 10 GB).
    constexpr MemoryMb kMaxFunctionMemoryMb = 10 * kMbPerGb;
    const std::size_t n = ctx.num_functions;
    functions_.clear();
    functions_.reserve(n);
    predictors::ForecastPoolOptions pool_opts;
    pool_opts.threads = config_.fip_threads;
    pool_ = predictors::ForecastPool(pool_opts);
    std::vector<double> memory_ratios(n, 0.0);
    for (std::size_t fn = 0; fn < n; ++fn) {
        functions_.emplace_back(config_.pdm.window);
        FunctionState &state = functions_.back();
        pool_.addFunction(config_.fip);
        const workload::FunctionProfile &profile = (*ctx.profiles)[fn];
        state.speedup_raw = profile.interServerSpeedup();
        state.memory_raw = std::min(
            1.0, static_cast<double>(profile.memory_mb) /
                     static_cast<double>(kMaxFunctionMemoryMb));
        memory_ratios[fn] = state.memory_raw;
    }
    pdm_ = std::make_unique<Pdm>(n, config_.pdm);
    pdm_->setMemoryRatios(std::move(memory_ratios));
}

void
IceBreakerPolicy::onIntervalObserved(
    const sim::IntervalObservation &closed)
{
    // 1. Close out the interval that just finished: fold the pushed
    // arrival counts into each function's tracker and FIP window.
    obs::ProbeTable *probes = ctx_->recorder != nullptr
        ? ctx_->recorder->probeTable()
        : nullptr;
    for (FunctionId fn = 0; fn < functions_.size(); ++fn) {
        FunctionState &state = functions_[fn];
        const std::uint32_t observed = closed.arrivalsFor(fn);
        state.tracker.recordInterval(state.invoked_this_interval,
                                     state.cold_this_interval,
                                     state.wasted_this_interval,
                                     state.last_prediction,
                                     static_cast<double>(observed));
        if (probes != nullptr &&
            (state.last_prediction != 0.0 || observed != 0)) {
            obs::ForecastSample sample;
            sample.interval =
                static_cast<std::uint32_t>(closed.interval);
            sample.fn = fn;
            sample.predicted = state.last_prediction;
            sample.actual = static_cast<double>(observed);
            sample.window_mae =
                state.tracker.meanAbsForecastError();
            probes->addForecastSample(sample);
        }
        state.invoked_this_interval = 0;
        state.cold_this_interval = 0;
        state.wasted_this_interval = 0;

        state.max_observed = std::max(state.max_observed, observed);
        pool_.observe(fn, static_cast<double>(observed));
    }
}

void
IceBreakerPolicy::onIntervalStart(IntervalIndex interval,
                                  sim::WarmupInterface &cluster)
{
    const TimeMs now = cluster.now();
    const TimeMs expiry =
        now + ctx_->interval_ms + policies::kRenewalGraceMs;

    // 2. Dynamic cut-offs from tier occupancy.
    const auto vacant_frac = [&](Tier tier) {
        const MemoryMb total = cluster.totalMemoryMb(tier);
        if (total <= 0)
            return 0.0;
        return static_cast<double>(cluster.vacantMemoryMb(tier)) /
            static_cast<double>(total);
    };
    pdm_->updateCutoffs(vacant_frac(Tier::HighEnd),
                        vacant_frac(Tier::LowEnd));

    // 3. Predict the whole fleet in one batched pass, then collect
    // candidates from the per-function horizons.
    const std::size_t horizon_len = config_.keep_alive_horizon + 1;
    pool_.forecastAll(horizon_len);
    std::vector<UtilityComponents> &candidates = candidates_;
    std::vector<std::size_t> &counts = counts_;
    candidates.clear();
    counts.clear();
    for (FunctionId fn = 0; fn < functions_.size(); ++fn) {
        FunctionState &state = functions_[fn];
        const double *horizon = pool_.forecast(fn);
        const double prediction = horizon[0];
        state.last_prediction = prediction;
        // The next interval beyond this one with predicted activity
        // drives post-execution keep-alive durations.
        state.next_predicted_gap = 0;
        for (std::size_t step = 1; step < horizon_len; ++step) {
            if (horizon[step] >= 0.5) {
                state.next_predicted_gap =
                    static_cast<std::uint32_t>(step);
                break;
            }
        }
        // Conservative rounding plus a self-correcting margin: a
        // function whose recent cold starts reveal under-provisioned
        // warm-ups (high T_n) gets proportionally more instances.
        const double margin =
            1.0 + std::min(1.0, state.tracker.trueNegativeRate());
        const double biased =
            (prediction - config_.count_deadband) * margin;
        std::size_t count = biased <= 0.0
            ? 0
            : static_cast<std::size_t>(std::ceil(biased));
        // Safety cap on predicted concurrency, as a multiple of the
        // largest concurrency ever observed for the function (guards
        // against runaway quadratic extrapolation).
        constexpr double kConcurrencyCapFactor = 2.0;
        const auto cap = static_cast<std::size_t>(
            kConcurrencyCapFactor *
                static_cast<double>(std::max<std::uint32_t>(
                    1, state.max_observed)) +
            1.0);
        count = std::min(count, cap);
        if (count == 0)
            continue;
        UtilityComponents uc;
        uc.fn = fn;
        uc.true_negative = state.tracker.trueNegativeRate();
        uc.false_positive = state.tracker.falsePositiveRate();
        uc.speedup = state.speedup_raw;
        uc.memory = state.memory_raw;
        candidates.push_back(uc);
        counts.push_back(count);
    }
    if (candidates.empty())
        return;

    // 4./5. Score, decide, and warm highest-utility functions first.
    std::vector<UtilityScore> &scores = scores_;
    computeUtilityScores(candidates, scores);
    std::vector<std::size_t> &order = order_;
    order.resize(scores.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (scores[a].score != scores[b].score)
                      return scores[a].score > scores[b].score;
                  return scores[a].fn < scores[b].fn;
              });

    for (std::size_t idx : order) {
        const UtilityScore &score = scores[idx];
        functions_[score.fn].last_score = score.score;
        const WarmTarget target = pdm_->decide(interval, score);
        if (target == WarmTarget::None)
            continue;
        const Tier tier = target == WarmTarget::HighEnd
            ? Tier::HighEnd
            : Tier::LowEnd;
        const std::size_t want = counts[idx];
        // Vacant memory first on the target tier, then the other
        // tier, then preempt lower-utility idle containers (the
        // paper's "priority is given to the functions with higher
        // utility scores").
        std::size_t on_primary =
            cluster.ensureWarm(score.fn, tier, want, expiry);
        std::size_t on_other = 0;
        if (on_primary < want) {
            on_other = cluster.ensureWarm(score.fn, otherTier(tier),
                                          want - on_primary, expiry);
        }
        if (on_primary + on_other < want) {
            on_primary += cluster.ensureWarmEvicting(
                score.fn, tier, want - on_other, expiry, *this);
        }
        if (on_primary > 0)
            pdm_->noteWarmed(score.fn, tier);
        if (on_other > 0)
            pdm_->noteWarmed(score.fn, otherTier(tier));
    }
}

void
IceBreakerPolicy::onExecutionStart(FunctionId fn, Tier tier, bool cold,
                                   TimeMs now)
{
    (void)tier;
    (void)now;
    FunctionState &state = functions_[fn];
    ++state.invoked_this_interval;
    if (cold)
        ++state.cold_this_interval;
}

TimeMs
IceBreakerPolicy::keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                            TimeMs now)
{
    (void)tier;
    // Hold the container at least to the next decision boundary (the
    // PDM renews it if the FIP predicts another invocation). When the
    // FIP already predicts a near-future invocation, ride the gap:
    // keeping the just-used container warm through the predicted
    // interval is cheaper and surer than tearing down and re-warming,
    // and the extension runs on whichever (possibly cheap) tier the
    // container already occupies.
    // Long gaps are only ridden out on the cheap tier (the paper's
    // Fig. 2c: a short stay on the high-end server, then the low-end
    // server carries the wait); expensive-tier containers get at most
    // a short extension.
    const TimeMs interval_ms = ctx_->interval_ms;
    const TimeMs next_boundary =
        (now / interval_ms + 1) * interval_ms;
    const std::uint32_t gap = functions_[fn].next_predicted_gap;
    const std::uint32_t tier_horizon = tier == Tier::HighEnd
        ? 3
        : static_cast<std::uint32_t>(config_.keep_alive_horizon);
    const TimeMs extension = (gap == 0 || gap > tier_horizon)
        ? 0
        : static_cast<TimeMs>(gap) * interval_ms;
    return next_boundary - now + policies::kRenewalGraceMs + extension;
}

std::array<Tier, 2>
IceBreakerPolicy::coldPlacementOrder(FunctionId fn)
{
    (void)fn;
    // Warm-up placement is utility-driven, but an unpredicted
    // invocation that must cold start anyway executes on the fastest
    // tier with room (matching how the paper runs the competing
    // schemes: high-end first, spill to low-end).
    return {Tier::HighEnd, Tier::LowEnd};
}

double
IceBreakerPolicy::evictionPriority(FunctionId fn, Tier tier,
                                   TimeMs last_used, TimeMs now)
{
    (void)tier;
    (void)now;
    // Reclaim the lowest-utility functions' containers first; break
    // utility ties by least-recent use.
    return functions_[fn].last_score +
        1e-12 * static_cast<double>(last_used);
}

void
IceBreakerPolicy::onWarmupWasted(FunctionId fn, Tier tier, TimeMs now)
{
    (void)tier;
    (void)now;
    ++functions_[fn].wasted_this_interval;
}

} // namespace iceb::core
