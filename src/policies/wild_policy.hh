/**
 * @file
 * "Serverless in the Wild" (Shahrad et al., ATC'20) warm-up policy.
 *
 * Hybrid histogram of per-function idle times: when representative,
 * pre-warm the function head-percentile minutes after its last
 * arrival and keep it alive until the tail percentile; fall back to
 * an ARIMA idle-time forecast, then to a standard fixed keep-alive.
 * As the paper's critique notes, the scheme warms the number of
 * instances seen at the previous invocation (it does not predict
 * concurrency). Made heterogeneity-aware the way the paper modified
 * it: high-end placement first, spill to low-end.
 */

#ifndef ICEB_POLICIES_WILD_POLICY_HH
#define ICEB_POLICIES_WILD_POLICY_HH

#include <vector>

#include "common/units.hh"
#include "predictors/hybrid_histogram.hh"
#include "sim/policy.hh"

namespace iceb::policies
{

/**
 * Hybrid-histogram warm-up policy.
 */
class WildPolicy : public sim::Policy
{
  public:
    const char *name() const override { return "wild"; }

    void initialize(const sim::SimContext &ctx) override;
    void onIntervalObserved(
        const sim::IntervalObservation &closed) override;
    void onIntervalStart(IntervalIndex interval,
                         sim::WarmupInterface &cluster) override;
    TimeMs keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                     TimeMs now) override;
    /** Decision latency; paper: competing schemes 10-20 ms. */
    static constexpr TimeMs kOverheadMs = 15;
    TimeMs overheadMs() const override { return kOverheadMs; }

  private:
    struct FunctionState
    {
        predictors::HybridHistogram histogram;
        predictors::IdleWindowForecast forecast; //!< for current idle
        IntervalIndex last_arrival = -1;
        std::uint32_t last_concurrency = 0;
    };

    std::vector<FunctionState> functions_;
};

} // namespace iceb::policies

#endif // ICEB_POLICIES_WILD_POLICY_HH
