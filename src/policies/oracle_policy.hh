/**
 * @file
 * Oracle warm-up policy: the paper's offline upper bound.
 *
 * Knows every future invocation exactly (it reads the driver's
 * arrival schedule through the privileged OracleContext; it is the
 * one policy deriving from sim::OfflinePolicy) and warms each
 * instance just-in-time so setup completes precisely at the arrival.
 * Containers are torn down immediately after execution, so keep-alive
 * cost is (essentially) zero and every invocation is a warm start
 * whenever memory allows. Not implementable online; it bounds the
 * achievable service time.
 */

#ifndef ICEB_POLICIES_ORACLE_POLICY_HH
#define ICEB_POLICIES_ORACLE_POLICY_HH

#include <vector>

#include "sim/oracle.hh"

namespace iceb::policies
{

/**
 * Just-in-time, future-knowledge policy.
 */
class OraclePolicy : public sim::OfflinePolicy
{
  public:
    OraclePolicy() = default;

    const char *name() const override { return "oracle"; }

    void initializeOracle(const sim::OracleContext &oracle) override;
    void onIntervalStart(IntervalIndex interval,
                         sim::WarmupInterface &cluster) override;

    TimeMs
    keepAliveAfterExecutionMs(FunctionId fn, Tier tier, TimeMs now)
        override
    {
        (void)fn;
        (void)tier;
        (void)now;
        return 0; // tear down instantly; the next warm-up is JIT
    }

  private:
    /** Per-function cursor into the arrival schedule. */
    std::vector<std::size_t> cursor_;
};

} // namespace iceb::policies

#endif // ICEB_POLICIES_ORACLE_POLICY_HH
