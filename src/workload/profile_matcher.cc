#include "workload/profile_matcher.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace iceb::workload
{

ProfileMatcher::ProfileMatcher(const BenchmarkSuite &suite) : suite_(suite)
{
}

std::size_t
ProfileMatcher::matchIndex(MemoryMb memory_mb, TimeMs exec_ms) const
{
    ICEB_ASSERT(memory_mb > 0 && exec_ms > 0,
                "matcher needs positive resource hints");
    const double log_mem = std::log(static_cast<double>(memory_mb));
    const double log_exec = std::log(static_cast<double>(exec_ms));

    std::size_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < suite_.size(); ++i) {
        const FunctionProfile &p = suite_.profile(i);
        const double dm =
            log_mem - std::log(static_cast<double>(p.memory_mb));
        const double de = log_exec -
            std::log(static_cast<double>(p.execMs(Tier::HighEnd)));
        const double dist = dm * dm + de * de;
        if (dist < best_dist) {
            best_dist = dist;
            best = i;
        }
    }
    return best;
}

FunctionProfile
ProfileMatcher::profileFor(const trace::FunctionSeries &fn) const
{
    return profileFor(fn.name, fn.memory_mb, fn.avg_exec_ms);
}

FunctionProfile
ProfileMatcher::profileFor(const std::string &name, MemoryMb memory_mb,
                           TimeMs exec_ms) const
{
    const MemoryMb mem = memory_mb > 0 ? memory_mb : MemoryMb{256};
    const TimeMs exec = exec_ms > 0 ? exec_ms : TimeMs{1000};
    const std::size_t index = matchIndex(mem, exec);
    const FunctionProfile &base = suite_.profile(index);

    FunctionProfile out = base;
    out.name = name.empty()
        ? base.name
        : name + " (" + base.name + ")";

    // Pin high-end execution to the trace hint, keep the benchmark's
    // low/high execution ratio, keep cold starts (they are dominated
    // by container/image setup, not function speed), and adopt the
    // trace's memory allocation.
    const double exec_scale = static_cast<double>(exec) /
        static_cast<double>(base.execMs(Tier::HighEnd));
    out.memory_mb = mem;
    out.exec_ms[tierIndex(Tier::HighEnd)] = std::max<TimeMs>(
        1, static_cast<TimeMs>(
               static_cast<double>(base.execMs(Tier::HighEnd)) *
               exec_scale));
    out.exec_ms[tierIndex(Tier::LowEnd)] = std::max<TimeMs>(
        1, static_cast<TimeMs>(
               static_cast<double>(base.execMs(Tier::LowEnd)) *
               exec_scale));
    return out;
}

std::vector<FunctionProfile>
ProfileMatcher::profilesFor(const trace::Trace &tr) const
{
    std::vector<FunctionProfile> out;
    out.reserve(tr.numFunctions());
    for (const auto &fn : tr.functions())
        out.push_back(profileFor(fn));
    return out;
}

} // namespace iceb::workload
