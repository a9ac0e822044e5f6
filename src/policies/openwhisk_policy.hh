/**
 * @file
 * OpenWhisk's native keep-alive policy: the paper's baseline.
 *
 * No prediction, no pre-warming; every container is simply kept warm
 * for a fixed window (ten minutes by default) after its execution
 * ends -- the behaviour of stock OpenWhisk and, per the paper, of
 * commercial FaaS offerings. All reported improvements in the benches
 * are relative to this scheme.
 */

#ifndef ICEB_POLICIES_OPENWHISK_POLICY_HH
#define ICEB_POLICIES_OPENWHISK_POLICY_HH

#include "common/units.hh"
#include "sim/policy.hh"

namespace iceb::policies
{

/**
 * Fixed keep-alive baseline.
 */
class OpenWhiskPolicy : public sim::Policy
{
  public:
    /** @param keep_alive_ms Post-execution keep-alive window. */
    explicit OpenWhiskPolicy(TimeMs keep_alive_ms = 10 * kMsPerMinute)
        : keep_alive_ms_(keep_alive_ms)
    {
    }

    const char *name() const override { return "openwhisk"; }

    TimeMs
    keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                              TimeMs now) override
    {
        (void)fn;
        (void)tier;
        (void)now;
        return keep_alive_ms_;
    }

  private:
    TimeMs keep_alive_ms_;
};

} // namespace iceb::policies

#endif // ICEB_POLICIES_OPENWHISK_POLICY_HH
