/**
 * @file
 * FaasCache (Fuerst & Sharma, ASPLOS'21) keep-alive policy.
 *
 * Treats function keep-alive as caching with Greedy-Dual-Size-
 * Frequency: every container stays warm indefinitely, and under
 * memory pressure the container with the lowest priority
 *
 *   priority = clock + frequency * cold_start_cost / memory_size
 *
 * is evicted; the global clock rises to the evicted priority so cold
 * entries age out. No prediction or pre-warming. Heterogeneity-aware
 * per the paper's modification: high-end placement first.
 */

#ifndef ICEB_POLICIES_FAASCACHE_POLICY_HH
#define ICEB_POLICIES_FAASCACHE_POLICY_HH

#include <vector>

#include "common/units.hh"
#include "sim/policy.hh"

namespace iceb::policies
{

/**
 * Greedy-dual keep-alive policy.
 */
class FaasCachePolicy : public sim::Policy
{
  public:
    const char *name() const override { return "faascache"; }

    void initialize(const sim::SimContext &ctx) override;
    void onExecutionStart(FunctionId fn, Tier tier, bool cold,
                          TimeMs now) override;
    TimeMs keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                     TimeMs now) override;
    double evictionPriority(FunctionId fn, Tier tier, TimeMs last_used,
                            TimeMs now) override;
    void onEviction(FunctionId fn, Tier tier, TimeMs now) override;
    /** Decision latency; paper: competing schemes 10-20 ms. */
    static constexpr TimeMs kOverheadMs = 12;
    TimeMs overheadMs() const override { return kOverheadMs; }

    /** Current greedy-dual clock (exposed for tests). */
    double clock() const { return clock_; }

  private:
    double priorityOf(FunctionId fn, Tier tier) const;

    std::vector<std::uint64_t> frequency_;
    double clock_ = 0.0;
};

} // namespace iceb::policies

#endif // ICEB_POLICIES_FAASCACHE_POLICY_HH
