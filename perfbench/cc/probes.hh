/**
 * @file
 * Outside-in timing probes: forwarding wrappers around the public
 * entry points of each layer, so the benchmark measures where a run's
 * time goes without changing a line of the library.
 *
 *  - TimedPolicy decorates any sim::Policy (online or offline). At every
 *    interval boundary it times the policy's observe and decide hooks;
 *    in traced mode it also times every per-event hook, wraps the
 *    WarmupInterface to count requested vs provisioned warm-ups, records
 *    spans, and (for IceBreaker) feeds a shadow predictors::ForecastPool
 *    and samples math:: calls on full windows of the same history.
 *  - TimedTraceSource and TimedRowSource forward sim::TraceSource and
 *    trace::FunctionRowSource, timing window fetches and row generation.
 *
 * Every wrapper is a pure forwarder: the wrapped run's SimulationMetrics
 * are byte-identical to an undecorated run (checked by --self-test).
 * Each run's probe state is private to the run and is merged into the
 * shared ProbeCollector once, when the decorator is destroyed.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/oracle.hh"
#include "sim/policy.hh"
#include "sim/trace_source.hh"
#include "trace/stream_reader.hh"

namespace perfbench
{

using namespace iceb;
using Clock = std::chrono::steady_clock;

inline double
secondsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** One timed interval of work inside a run (kept in memory). */
struct Span
{
    std::string name;
    std::uint32_t run = 0;      //!< run id within the process
    std::uint32_t interval = 0; //!< per-interval id
    std::int64_t parent = -1;   //!< index into the same run's spans
    double start_s = 0.0;       //!< since the process epoch
    double end_s = 0.0;
};

/** Probe options of one decorated run. */
struct ProbeOptions
{
    /** Per-event timers, spans, warm-up counts, shadow forecasting. */
    bool traced = false;

    /** Feed a shadow ForecastPool and sample math:: calls (IceBreaker). */
    bool shadow_forecast = false;

    /** Worker threads of the shadow pool (match the policy's). */
    std::size_t fip_threads = 1;
};

/** Everything one decorated run measured. */
struct RunProbe
{
    std::string scheme;
    std::uint32_t run = 0;
    double wall_s = 0.0; //!< decorator construction to destruction

    // Interval hooks (always timed).
    double observe_s = 0.0;
    double decide_s = 0.0;
    double window_s = 0.0; //!< only when a TimedTraceSource is linked
    std::vector<double> decision_ms; //!< per boundary: observe + decide
    std::vector<double> interval_ms; //!< boundary-to-boundary wall time

    // Per-event hooks (traced only).
    double event_hook_s = 0.0;
    std::uint64_t event_hook_calls = 0;

    // WarmupInterface traffic (traced only).
    std::uint64_t warm_requested = 0;
    std::uint64_t warm_provisioned = 0;
    std::uint64_t warmups_wasted = 0;

    // Shadow forecaster (traced IceBreaker only).
    double forecast_s = 0.0;
    double shadow_observe_s = 0.0;
    std::uint64_t forecasts = 0;

    // Sampled math:: calls on full windows (traced IceBreaker only).
    double fft_ns = 0.0;
    double trend_ns = 0.0;
    double harmonic_fit_ns = 0.0;
    std::uint64_t harmonics = 0;
    std::uint64_t math_windows = 0;

    std::vector<Span> spans;
};

/** Thread-safe sink every decorated run reports into. */
class ProbeCollector
{
  public:
    ProbeCollector() : epoch_(Clock::now()) {}

    double since(Clock::time_point t) const
    {
        return secondsBetween(epoch_, t);
    }

    std::uint32_t nextRunId();
    void add(RunProbe probe);

    /** Move out every run reported so far (in report order). */
    std::vector<RunProbe> take();

  private:
    const Clock::time_point epoch_;
    std::mutex mutex_;
    std::vector<RunProbe> runs_; // guarded by mutex_
    std::uint32_t next_run_ = 0; // guarded by mutex_
};

class TimedPolicyState;

/**
 * Forwarding decorator over any Policy. Base is sim::Policy for online
 * schemes and sim::OfflinePolicy for the Oracle, so the simulator's
 * offline grant still reaches the wrapped scheme.
 */
template <class Base>
class TimedPolicy final : public Base
{
  public:
    TimedPolicy(std::unique_ptr<sim::Policy> inner, std::string scheme,
                ProbeOptions options, ProbeCollector &collector);
    ~TimedPolicy() override;

    TimedPolicy(const TimedPolicy &) = delete;
    TimedPolicy &operator=(const TimedPolicy &) = delete;

    const char *name() const override { return inner_->name(); }
    void initialize(const sim::SimContext &ctx) override;
    void onIntervalObserved(const sim::IntervalObservation &closed) override;
    void onIntervalStart(IntervalIndex interval,
                         sim::WarmupInterface &cluster) override;
    void onExecutionStart(FunctionId fn, Tier tier, bool cold,
                          TimeMs now) override;
    TimeMs keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                     TimeMs now) override;
    std::array<Tier, 2> coldPlacementOrder(FunctionId fn) override;
    double evictionPriority(FunctionId fn, Tier tier, TimeMs last_used,
                            TimeMs now) override;
    void onWarmupWasted(FunctionId fn, Tier tier, TimeMs now) override;
    void onEviction(FunctionId fn, Tier tier, TimeMs now) override;
    TimeMs overheadMs() const override { return inner_->overheadMs(); }
    bool shardCompatible() const override
    {
        return inner_->shardCompatible();
    }

    /** Offline grant (only reachable when Base is OfflinePolicy). */
    void initializeOracle(const sim::OracleContext &oracle);

    /** Called by a linked TimedTraceSource after each window fetch. */
    void noteWindow(Clock::time_point start, Clock::time_point end);

  private:
    std::unique_ptr<sim::Policy> inner_;
    std::unique_ptr<TimedPolicyState> state_;
};

/** Decorate @p inner, picking the offline base for offline schemes. */
std::unique_ptr<sim::Policy>
makeTimedPolicy(std::unique_ptr<sim::Policy> inner, std::string scheme,
                ProbeOptions options, ProbeCollector &collector);

/** Forwarding TraceSource that times window fetches. */
class TimedTraceSource final : public sim::TraceSource
{
  public:
    explicit TimedTraceSource(sim::TraceSource &inner) : inner_(inner) {}

    /** Report each fetch to @p policy's current boundary (may be null). */
    void link(TimedPolicy<sim::Policy> *policy) { policy_ = policy; }

    std::size_t numFunctions() const override
    {
        return inner_.numFunctions();
    }
    std::size_t numIntervals() const override
    {
        return inner_.numIntervals();
    }
    TimeMs intervalMs() const override { return inner_.intervalMs(); }
    std::uint64_t totalArrivals() const override
    {
        return inner_.totalArrivals();
    }
    std::size_t maxIntervalArrivals() const override
    {
        return inner_.maxIntervalArrivals();
    }
    void beginRun() override { inner_.beginRun(); }
    sim::ArrivalWindow intervalWindow(IntervalIndex interval) override;
    const trace::Trace *trace() const override { return inner_.trace(); }
    const std::vector<std::vector<TimeMs>> *
    arrivalSchedule() const override
    {
        return inner_.arrivalSchedule();
    }

  private:
    sim::TraceSource &inner_;
    TimedPolicy<sim::Policy> *policy_ = nullptr;
};

/** Forwarding FunctionRowSource that times row production. */
class TimedRowSource final : public trace::FunctionRowSource
{
  public:
    explicit TimedRowSource(trace::FunctionRowSource &inner)
        : inner_(inner)
    {
    }

    TimeMs intervalMs() const override { return inner_.intervalMs(); }
    bool next(trace::FunctionRow &row) override
    {
        const Clock::time_point start = Clock::now();
        const bool more = inner_.next(row);
        busy_s_ += secondsBetween(start, Clock::now());
        return more;
    }

    /** Wall time spent inside next(). */
    double busySeconds() const { return busy_s_; }

  private:
    trace::FunctionRowSource &inner_;
    double busy_s_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
