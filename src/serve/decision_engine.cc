#include "serve/decision_engine.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "sim/oracle.hh"

namespace iceb::serve
{

const char *
decisionKindName(DecisionKind kind)
{
    switch (kind) {
    case DecisionKind::EnsureWarm:
        return "ensure_warm";
    case DecisionKind::EnsureWarmEvicting:
        return "ensure_warm_evicting";
    case DecisionKind::SchedulePrewarm:
        return "schedule_prewarm";
    }
    return "?";
}

/**
 * WarmupInterface decorator that forwards every call to the real
 * cluster and appends one Decision per mutating call. Reads pass
 * through untouched, so a wrapped policy sees exactly the occupancy
 * signals an unwrapped one would.
 */
class DecisionEngine::RecordingWarmup final : public sim::WarmupInterface
{
  public:
    RecordingWarmup(DecisionEngine &engine, sim::WarmupInterface &inner)
        : engine_(engine), inner_(inner)
    {
    }

    std::size_t
    ensureWarm(FunctionId fn, Tier tier, std::size_t count,
               TimeMs expiry) override
    {
        const std::size_t got = inner_.ensureWarm(fn, tier, count,
                                                  expiry);
        record(DecisionKind::EnsureWarm, fn, tier, count, got, 0,
               expiry);
        return got;
    }

    std::size_t
    ensureWarmEvicting(FunctionId fn, Tier tier, std::size_t count,
                       TimeMs expiry, sim::Policy &policy) override
    {
        const std::size_t got = inner_.ensureWarmEvicting(
            fn, tier, count, expiry, policy);
        record(DecisionKind::EnsureWarmEvicting, fn, tier, count, got,
               0, expiry);
        return got;
    }

    void
    schedulePrewarm(FunctionId fn, Tier tier, TimeMs start_time,
                    TimeMs expiry) override
    {
        inner_.schedulePrewarm(fn, tier, start_time, expiry);
        record(DecisionKind::SchedulePrewarm, fn, tier, 1, 1,
               start_time, expiry);
    }

    MemoryMb vacantMemoryMb(Tier tier) const override
    {
        return inner_.vacantMemoryMb(tier);
    }
    MemoryMb totalMemoryMb(Tier tier) const override
    {
        return inner_.totalMemoryMb(tier);
    }
    std::size_t warmCount(FunctionId fn, Tier tier) const override
    {
        return inner_.warmCount(fn, tier);
    }
    TimeMs now() const override { return inner_.now(); }

  private:
    void
    record(DecisionKind kind, FunctionId fn, Tier tier,
           std::size_t count, std::size_t provisioned,
           TimeMs start_time, TimeMs expiry)
    {
        Decision d;
        d.kind = kind;
        d.interval = engine_.current_interval_;
        d.issued_at = inner_.now();
        d.fn = fn;
        d.tier = tier;
        d.count = count;
        d.provisioned = provisioned;
        d.start_time = start_time;
        d.expiry = expiry;
        engine_.decisions_.push_back(d);
        ++engine_.decision_count_;
    }

    DecisionEngine &engine_;
    sim::WarmupInterface &inner_;
};

DecisionEngine::DecisionEngine(std::unique_ptr<sim::Policy> policy)
    : policy_(std::move(policy))
{
    ICEB_ASSERT(policy_ != nullptr, "DecisionEngine needs a policy");
    if (dynamic_cast<sim::OfflinePolicy *>(policy_.get()) != nullptr) {
        fatal("DecisionEngine cannot serve offline scheme '",
              policy_->name(),
              "': the oracle grant does not cross the serving "
              "boundary");
    }
}

DecisionEngine::~DecisionEngine() = default;

void
DecisionEngine::initialize(const sim::SimContext &ctx)
{
    Policy::initialize(ctx);
    policy_->initialize(ctx);
    observed_.assign(ctx.num_functions, 0);
    next_interval_ = 0;
    current_interval_ = 0;
}

void
DecisionEngine::onIntervalStart(IntervalIndex interval,
                                sim::WarmupInterface &cluster)
{
    current_interval_ = interval;
    RecordingWarmup recording(*this, cluster);
    policy_->onIntervalStart(interval, recording);
}

bool
DecisionEngine::pushArrival(FunctionId fn, std::uint32_t count)
{
    // observed_ is empty until initialize(), so one bounds check
    // covers both an unknown id and an uninitialized engine.
    if (fn >= observed_.size() ||
        count > std::numeric_limits<std::uint32_t>::max() - observed_[fn]) {
        rejected_arrivals_ += count;
        return false;
    }
    observed_[fn] += count;
    return true;
}

void
DecisionEngine::advanceInterval(sim::WarmupInterface &cluster)
{
    ICEB_ASSERT(ctx_ != nullptr,
                "advanceInterval before initialize()");
    if (next_interval_ > 0) {
        sim::IntervalObservation closed;
        closed.interval = next_interval_ - 1;
        closed.arrivals = observed_.data();
        closed.num_functions = observed_.size();
        policy_->onIntervalObserved(closed);
        std::fill(observed_.begin(), observed_.end(), 0u);
    }
    onIntervalStart(next_interval_, cluster);
    ++next_interval_;
}

std::vector<Decision>
DecisionEngine::drainDecisions()
{
    return std::exchange(decisions_, {});
}

} // namespace iceb::serve
