/**
 * @file
 * Scheme-name -> policy-factory registry.
 *
 * Replaces the old hard-coded makePolicy switch: every warm-up scheme
 * (built-in or user-defined) registers a factory under a stable
 * string key, and the experiment runner instantiates a fresh policy
 * per run through it. Factories capture their configuration by value,
 * so one registered name always produces identically-configured
 * policies — the property the determinism contract relies on — and
 * may be invoked concurrently from runner worker threads.
 *
 * The five paper schemes are registered up front ("openwhisk",
 * "wild", "faascache", "icebreaker", "oracle"); ablation variants and
 * example policies add themselves at startup, usually through a
 * ScopedPolicyRegistration.
 */

#ifndef ICEB_HARNESS_REGISTRY_HH
#define ICEB_HARNESS_REGISTRY_HH

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/policy.hh"

namespace iceb::serve
{
class DecisionEngine;
} // namespace iceb::serve

namespace iceb::harness
{

/** Creates one fresh, identically-configured policy per call. */
using PolicyFactory = std::function<std::unique_ptr<sim::Policy>()>;

/**
 * Process-wide policy registry. All operations are thread-safe;
 * make() may be called concurrently from runner workers.
 */
class PolicyRegistry
{
  public:
    /** The process-wide instance, with built-ins pre-registered. */
    static PolicyRegistry &instance();

    /**
     * Register @p factory under @p name. Registering an existing name
     * is a user error.
     */
    void add(const std::string &name, PolicyFactory factory);

    /** Remove a registered name (no-op for unknown names). */
    void remove(const std::string &name);

    /** Whether a name is registered. */
    bool contains(const std::string &name) const;

    /** Instantiate a fresh policy; fatal() on unknown names. */
    std::unique_ptr<sim::Policy> make(const std::string &name) const;

    /** All registered names in sorted order. */
    std::vector<std::string> names() const;

  private:
    PolicyRegistry(); //!< registers the built-in schemes

    mutable std::mutex mutex_;
    std::map<std::string, PolicyFactory> factories_;
};

/** Shorthand for PolicyRegistry::instance().make(name). */
std::unique_ptr<sim::Policy> makePolicyByName(const std::string &name);

/**
 * Instantiate a fresh scheme by name and wrap it in a serving-mode
 * DecisionEngine. The engine is itself a Policy, so the result can be
 * handed to a Simulator, registered as a scheme of its own (the
 * engine-wrapped runner-grid idiom), or driven standalone through the
 * serving façade. fatal()s on unknown names and on offline schemes
 * ("oracle"), which cannot cross the serving boundary.
 */
std::unique_ptr<serve::DecisionEngine>
makeDecisionEngineByName(const std::string &name);

/**
 * RAII registration: adds a scheme on construction, removes it on
 * destruction. The idiom for bench-local variants and examples.
 */
class ScopedPolicyRegistration
{
  public:
    ScopedPolicyRegistration(std::string name, PolicyFactory factory);
    ~ScopedPolicyRegistration();

    ScopedPolicyRegistration(const ScopedPolicyRegistration &) = delete;
    ScopedPolicyRegistration &
    operator=(const ScopedPolicyRegistration &) = delete;

  private:
    std::string name_;
};

} // namespace iceb::harness

#endif // ICEB_HARNESS_REGISTRY_HH
