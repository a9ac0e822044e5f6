#include "policies/wild_policy.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "policies/policy_util.hh"

namespace iceb::policies
{

void
WildPolicy::initialize(const sim::SimContext &ctx)
{
    Policy::initialize(ctx);
    functions_.clear();
    functions_.resize(ctx.num_functions);
}

void
WildPolicy::onIntervalObserved(const sim::IntervalObservation &closed)
{
    // Digest the interval that just finished into each function's
    // idle-time histogram (the policy's own history state).
    for (FunctionId fn = 0; fn < functions_.size(); ++fn) {
        const std::uint32_t observed = closed.arrivalsFor(fn);
        if (observed == 0)
            continue;
        FunctionState &state = functions_[fn];
        state.histogram.observeArrival(closed.interval);
        state.last_arrival = closed.interval;
        state.last_concurrency = observed;
        state.forecast = state.histogram.forecast();
    }
}

void
WildPolicy::onIntervalStart(IntervalIndex interval,
                            sim::WarmupInterface &cluster)
{
    const TimeMs interval_ms = ctx_->interval_ms;
    const TimeMs now = cluster.now();
    const TimeMs expiry = now + interval_ms + kRenewalGraceMs;

    for (FunctionId fn = 0; fn < functions_.size(); ++fn) {
        FunctionState &state = functions_[fn];
        if (state.last_arrival < 0 || !state.forecast.usable)
            continue;

        // Pre-warm while inside [head, tail] of the predicted idle
        // window, with the previous invocation's concurrency.
        const double idle_minutes =
            static_cast<double>(interval - state.last_arrival);
        if (idle_minutes >= state.forecast.head_minutes &&
            idle_minutes <= state.forecast.tail_minutes) {
            warmWithSpill(cluster, fn, Tier::HighEnd,
                          std::max<std::uint32_t>(
                              1, state.last_concurrency),
                          expiry, *this);
        }
    }
}

TimeMs
WildPolicy::keepAliveAfterExecutionMs(FunctionId fn, Tier tier, TimeMs now)
{
    (void)tier;
    // The fixed keep-alive of an unusable forecast.
    constexpr TimeMs kStandardKeepAliveMs = 10 * kMsPerMinute;
    const FunctionState &state = functions_[fn];
    if (!state.forecast.usable)
        return kStandardKeepAliveMs;

    // Keep alive through the head of the expected idle window; the
    // interval hook re-warms the function near the predicted arrival.
    const TimeMs head_ms = static_cast<TimeMs>(
        state.forecast.head_minutes *
        static_cast<double>(ctx_->interval_ms));
    if (head_ms <= ctx_->interval_ms)
        return std::max<TimeMs>(
            ctx_->interval_ms + kRenewalGraceMs,
            static_cast<TimeMs>(
                state.forecast.tail_minutes *
                static_cast<double>(ctx_->interval_ms)));
    (void)now;
    return ctx_->interval_ms + kRenewalGraceMs;
}

} // namespace iceb::policies
