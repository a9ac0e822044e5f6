/**
 * @file
 * DecisionEngine: the serving-mode façade around a warm-up policy.
 *
 * The engine packages one online policy (with whatever predictor
 * stack it owns) behind the streaming observation/decision boundary
 * and captures every action the policy takes as a typed Decision
 * record. It is usable two ways:
 *
 *  - As a transparent Policy decorator: hand it to a Simulator (or
 *    register it as a scheme) and it forwards every hook to the inner
 *    policy unchanged — results are byte-identical to running the
 *    policy bare — while logging the decisions that flow through its
 *    WarmupInterface.
 *
 *  - As a standalone serving façade: a driver with no trace at all
 *    (a live front end, the ReplayDriver, a unit test) feeds it
 *    pushArrival() per invocation, calls advanceInterval() at each
 *    decision boundary, and collects the resulting warm-up actions
 *    with drainDecisions(). The engine maintains the per-interval
 *    arrival counts itself and pushes them to the policy as
 *    IntervalObservations, exactly as the Simulator does.
 *
 * Offline schemes are rejected at construction: an OfflinePolicy
 * needs the OracleContext grant, which deliberately does not pass
 * through the serving boundary — a serving engine has no future to
 * leak.
 */

#ifndef ICEB_SERVE_DECISION_ENGINE_HH
#define ICEB_SERVE_DECISION_ENGINE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/policy.hh"

namespace iceb::serve
{

/** What kind of cluster action a policy took. */
enum class DecisionKind : std::uint8_t
{
    EnsureWarm = 0,     //!< warm-up from vacant memory only
    EnsureWarmEvicting, //!< warm-up that may evict lower priority
    SchedulePrewarm,    //!< deferred warm-up at a future start time
};

/** Display name of a decision kind. */
const char *decisionKindName(DecisionKind kind);

/** One recorded policy action, as issued through a WarmupInterface. */
struct Decision
{
    DecisionKind kind = DecisionKind::EnsureWarm;
    IntervalIndex interval = 0; //!< decision interval it was issued in
    TimeMs issued_at = 0;       //!< cluster time at issue
    FunctionId fn = kInvalidFunction;
    Tier tier = Tier::HighEnd;
    std::size_t count = 0;       //!< instances requested
    std::size_t provisioned = 0; //!< instances actually granted
    TimeMs start_time = 0;       //!< SchedulePrewarm only
    TimeMs expiry = 0;           //!< keep-alive deadline granted
};

/**
 * One policy + predictor stack behind the serving boundary. See the
 * file comment for the two usage modes.
 */
class DecisionEngine final : public sim::Policy
{
  public:
    /**
     * Takes ownership of @p policy. fatal()s if @p policy is an
     * OfflinePolicy (the oracle grant cannot cross this boundary).
     */
    explicit DecisionEngine(std::unique_ptr<sim::Policy> policy);
    ~DecisionEngine() override;

    /** The wrapped scheme (for white-box tests and reports). */
    sim::Policy &policy() { return *policy_; }

    // ---------------------------------------------------- Policy
    // Decorator mode: every hook forwards to the inner policy;
    // onIntervalStart additionally records the decisions the policy
    // issues through the passed WarmupInterface.

    const char *name() const override { return policy_->name(); }
    void initialize(const sim::SimContext &ctx) override;
    void
    onIntervalObserved(const sim::IntervalObservation &closed) override
    {
        policy_->onIntervalObserved(closed);
    }
    void onIntervalStart(IntervalIndex interval,
                         sim::WarmupInterface &cluster) override;
    void onExecutionStart(FunctionId fn, Tier tier, bool cold,
                          TimeMs now) override
    {
        policy_->onExecutionStart(fn, tier, cold, now);
    }
    TimeMs
    keepAliveAfterExecutionMs(FunctionId fn, Tier tier, TimeMs now)
        override
    {
        return policy_->keepAliveAfterExecutionMs(fn, tier, now);
    }
    std::array<Tier, 2> coldPlacementOrder(FunctionId fn) override
    {
        return policy_->coldPlacementOrder(fn);
    }
    double evictionPriority(FunctionId fn, Tier tier, TimeMs last_used,
                            TimeMs now) override
    {
        return policy_->evictionPriority(fn, tier, last_used, now);
    }
    void onWarmupWasted(FunctionId fn, Tier tier, TimeMs now) override
    {
        policy_->onWarmupWasted(fn, tier, now);
    }
    void onEviction(FunctionId fn, Tier tier, TimeMs now) override
    {
        policy_->onEviction(fn, tier, now);
    }
    TimeMs overheadMs() const override
    {
        return policy_->overheadMs();
    }

    // ------------------------------------------- serving façade
    // Standalone mode: the caller is the driver. No trace, no
    // simulator — just observations in, decisions out.

    /**
     * Record @p count arrivals of @p fn in the open interval. Returns
     * false, records nothing and adds @p count to
     * rejectedArrivals() when the engine is not initialized, @p fn
     * is not one of its functions, or the interval's count of @p fn
     * would pass 2^32 - 1: this is external input, so bad values are
     * refused rather than treated as a broken invariant.
     */
    bool pushArrival(FunctionId fn, std::uint32_t count = 1);

    /** Arrivals pushArrival() has refused so far. */
    std::uint64_t rejectedArrivals() const { return rejected_arrivals_; }

    /**
     * Close the open interval (pushing its arrival counts to the
     * policy as an IntervalObservation) and start the next one,
     * letting the policy act on @p cluster. Decisions land in the
     * drainable log.
     */
    void advanceInterval(sim::WarmupInterface &cluster);

    /** Intervals started through advanceInterval(). */
    IntervalIndex servedIntervals() const { return next_interval_; }

    // ------------------------------------------- decision log

    /** Move out the decisions recorded since the last drain. */
    std::vector<Decision> drainDecisions();

    /** Decisions ever recorded (including drained ones). */
    std::size_t decisionCount() const { return decision_count_; }

  private:
    class RecordingWarmup;

    std::unique_ptr<sim::Policy> policy_;
    std::vector<Decision> decisions_;
    std::size_t decision_count_ = 0;

    /** Interval the policy is currently acting for (either mode). */
    IntervalIndex current_interval_ = 0;

    /** Standalone-mode state: open-interval counts and the counter. */
    std::vector<std::uint32_t> observed_;
    IntervalIndex next_interval_ = 0;
    std::uint64_t rejected_arrivals_ = 0;
};

} // namespace iceb::serve

#endif // ICEB_SERVE_DECISION_ENGINE_HH
