#include "policies/faascache_policy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace iceb::policies
{

void
FaasCachePolicy::initialize(const sim::SimContext &ctx)
{
    Policy::initialize(ctx);
    frequency_.assign(ctx.num_functions, 0);
    clock_ = 0.0;
}

void
FaasCachePolicy::onExecutionStart(FunctionId fn, Tier tier, bool cold,
                                  TimeMs now)
{
    (void)tier;
    (void)cold;
    (void)now;
    ICEB_ASSERT(fn < frequency_.size(), "unknown function");
    ++frequency_[fn];
}

TimeMs
FaasCachePolicy::keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                           TimeMs now)
{
    (void)fn;
    (void)tier;
    (void)now;
    // "Keep everything" -- greedy-dual eviction is the real policy;
    // this cap on how long an un-evicted container stays warm only
    // bounds abandoned tails.
    constexpr TimeMs kMaxKeepAliveMs = 1 * kMsPerHour;
    return kMaxKeepAliveMs;
}

double
FaasCachePolicy::priorityOf(FunctionId fn, Tier tier) const
{
    const workload::FunctionProfile &profile = (*ctx_->profiles)[fn];
    const double cost =
        static_cast<double>(profile.coldStartMs(tier));
    const double size = static_cast<double>(profile.memory_mb);
    const double freq = static_cast<double>(frequency_[fn]);
    return clock_ + freq * cost / std::max(1.0, size);
}

double
FaasCachePolicy::evictionPriority(FunctionId fn, Tier tier,
                                  TimeMs last_used, TimeMs now)
{
    (void)last_used;
    (void)now;
    return priorityOf(fn, tier);
}

void
FaasCachePolicy::onEviction(FunctionId fn, Tier tier, TimeMs now)
{
    (void)now;
    // Greedy-dual aging: the clock jumps to the evicted priority.
    clock_ = std::max(clock_, priorityOf(fn, tier));
}

} // namespace iceb::policies
