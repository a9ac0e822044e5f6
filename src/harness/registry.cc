#include "harness/registry.hh"

#include "common/logging.hh"
#include "core/icebreaker.hh"
#include "policies/faascache_policy.hh"
#include "policies/openwhisk_policy.hh"
#include "policies/oracle_policy.hh"
#include "policies/wild_policy.hh"
#include "serve/decision_engine.hh"

namespace iceb::harness
{

PolicyRegistry &
PolicyRegistry::instance()
{
    static PolicyRegistry registry;
    return registry;
}

PolicyRegistry::PolicyRegistry()
{
    factories_["openwhisk"] = [] {
        return std::make_unique<policies::OpenWhiskPolicy>();
    };
    factories_["wild"] = [] {
        return std::make_unique<policies::WildPolicy>();
    };
    factories_["faascache"] = [] {
        return std::make_unique<policies::FaasCachePolicy>();
    };
    factories_["icebreaker"] = [] {
        return std::make_unique<core::IceBreakerPolicy>();
    };
    factories_["oracle"] = [] {
        return std::make_unique<policies::OraclePolicy>();
    };
}

void
PolicyRegistry::add(const std::string &name, PolicyFactory factory)
{
    ICEB_ASSERT(factory != nullptr, "null policy factory");
    std::lock_guard<std::mutex> lock(mutex_);
    if (!factories_.emplace(name, std::move(factory)).second)
        fatal("policy '", name, "' is already registered");
}

void
PolicyRegistry::remove(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    factories_.erase(name);
}

bool
PolicyRegistry::contains(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(name) != 0;
}

std::unique_ptr<sim::Policy>
PolicyRegistry::make(const std::string &name) const
{
    PolicyFactory factory;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = factories_.find(name);
        if (it == factories_.end())
            fatal("unknown policy '", name,
                  "' (register it with PolicyRegistry::add)");
        factory = it->second;
    }
    // Invoke outside the lock: factories may be arbitrarily expensive
    // and make() runs concurrently on runner workers.
    std::unique_ptr<sim::Policy> policy = factory();
    ICEB_ASSERT(policy != nullptr, "factory for '", name,
                "' returned null");
    return policy;
}

std::vector<std::string>
PolicyRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        names.push_back(name);
    return names;
}

std::unique_ptr<sim::Policy>
makePolicyByName(const std::string &name)
{
    return PolicyRegistry::instance().make(name);
}

std::unique_ptr<serve::DecisionEngine>
makeDecisionEngineByName(const std::string &name)
{
    return std::make_unique<serve::DecisionEngine>(
        makePolicyByName(name));
}

ScopedPolicyRegistration::ScopedPolicyRegistration(std::string name,
                                                   PolicyFactory factory)
    : name_(std::move(name))
{
    PolicyRegistry::instance().add(name_, std::move(factory));
}

ScopedPolicyRegistration::~ScopedPolicyRegistration()
{
    PolicyRegistry::instance().remove(name_);
}

} // namespace iceb::harness
