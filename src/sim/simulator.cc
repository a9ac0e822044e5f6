#include "sim/simulator.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/probes.hh"
#include "obs/recorder.hh"

namespace iceb::sim
{

static_assert(kNumEventTypes == 6,
              "EventLoopStats::popped[] indexing assumes 6 event types");

SimulatorOptions
SimulatorOptions::forRun(std::uint64_t base_seed, std::uint64_t run_index)
{
    SimulatorOptions options;
    options.seed = deriveSeed(base_seed, run_index);
    return options;
}

Simulator::Simulator(
    const trace::Trace &tr,
    const std::vector<workload::FunctionProfile> &profiles,
    const ClusterConfig &config, Policy &policy, SimulatorOptions options)
    : Simulator(
          std::make_unique<MaterializedTraceSource>(tr, options.seed),
          nullptr, profiles, config, policy, options)
{
}

Simulator::Simulator(
    TraceSource &source,
    const std::vector<workload::FunctionProfile> &profiles,
    const ClusterConfig &config, Policy &policy, SimulatorOptions options)
    : Simulator(nullptr, &source, profiles, config, policy, options)
{
}

Simulator::Simulator(
    std::unique_ptr<TraceSource> owned, TraceSource *external,
    const std::vector<workload::FunctionProfile> &profiles,
    const ClusterConfig &config, Policy &policy, SimulatorOptions options)
    : owned_source_(std::move(owned)),
      source_(owned_source_ != nullptr ? owned_source_.get() : external),
      profiles_(profiles), config_(config), policy_(policy),
      options_(options), num_functions_(source_->numFunctions()),
      num_intervals_(source_->numIntervals()),
      interval_ms_(source_->intervalMs()), metrics_(num_functions_),
      cluster_(config, profiles, events_, metrics_, options.hints)
{
    ICEB_ASSERT(profiles_.size() == num_functions_,
                "one profile per workload function required");
    ICEB_ASSERT(config_.totalServers() > 0, "cluster has no servers");

    // All capacity hints apply here, before run(): with hints from a
    // previous run's peaks, run() itself performs no allocations.
    metrics_.reserveSamples(
        static_cast<std::size_t>(source_->totalArrivals()));
    events_.reserve(options_.hints.events,
                    options_.hints.events_per_bucket);
    wait_queue_.reserve(options_.hints.wait_queue);

    context_.num_functions = num_functions_;
    context_.profiles = &profiles_;
    context_.cluster = &config_;
    context_.interval_ms = interval_ms_;
    context_.recorder = options_.recorder;

    // The privileged view exists only for materialized sources;
    // start() grants it solely to OfflinePolicy schemes (and refuses
    // a streamed run, which has nothing to grant).
    oracle_context_.trace = source_->trace();
    oracle_context_.arrival_schedule = source_->arrivalSchedule();

    observed_counts_.assign(num_functions_, 0);

    if (options_.recorder != nullptr) {
        tsink_ = options_.recorder->traceSink();
        probes_ = options_.recorder->probeTable();
        hists_ = options_.recorder->histograms();
        cluster_.setTraceSink(tsink_);
        if (probes_ != nullptr)
            probes_->reserve(num_intervals_, num_functions_);
    }
}

/** Wall-clock µs elapsed since @p t0 (wall-timing histograms only). */
static std::uint64_t
wallUsSince(std::chrono::steady_clock::time_point t0)
{
    const auto dt = std::chrono::steady_clock::now() - t0;
    const auto us =
        std::chrono::duration_cast<std::chrono::microseconds>(dt);
    return us.count() > 0 ? static_cast<std::uint64_t>(us.count()) : 0;
}

void
Simulator::openArrivalWindow(IntervalIndex interval)
{
    window_ = source_->intervalWindow(interval);
    window_pos_ = 0;
    // Claim the sequence numbers the old code's per-arrival pushes
    // would have consumed here, so later pushes (and the merge below)
    // order identically.
    stream_seq_base_ =
        events_.reserveSeqs(static_cast<std::uint64_t>(window_.size));
}

void
Simulator::start()
{
    ICEB_ASSERT(!started_, "Simulator::start() called twice");
    started_ = true;

    policy_.initialize(context_);
    // Only explicitly-offline policies receive the privileged
    // full-trace view; everyone else has no path to it. A streamed
    // workload has no full trace to grant at all.
    if (auto *offline = dynamic_cast<OfflinePolicy *>(&policy_)) {
        if (oracle_context_.trace == nullptr) {
            fatal("offline (oracle) scheme '", policy_.name(),
                  "' needs a materialized trace; a streamed workload "
                  "cannot grant the privileged full-trace view");
        }
        offline->initializeOracle(oracle_context_);
    }

    source_->beginRun();

    // Interval ticks are scheduled up front so, at equal timestamps,
    // they process before that interval's arrivals (lower sequence
    // numbers win).
    for (std::size_t iv = 0; iv < num_intervals_; ++iv) {
        Event tick;
        tick.time = static_cast<TimeMs>(iv) * interval_ms_;
        tick.type = EventType::IntervalTick;
        tick.interval = static_cast<IntervalIndex>(iv);
        events_.push(tick);
    }
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline)) inline
#endif
bool
Simulator::stepImpl(EventLoopStats &stats)
{
    // Merge the open arrival window against the heap by
    // (time, seq); strict ordering because all keys are unique.
    if (window_pos_ < window_.size) {
        const ArrivalRecord &arrival = window_.data[window_pos_];
        const std::uint64_t arrival_seq =
            stream_seq_base_ + arrival.rank;
        const auto key = events_.peekKey();
        if (!key || arrival.time < key->time ||
            (arrival.time == key->time && arrival_seq < key->seq)) {
            ++window_pos_;
            now_ = arrival.time;
            cluster_.setNow(now_);
            ++stats.popped[static_cast<std::size_t>(
                EventType::InvocationArrival)];
            handleArrival(arrival.fn, arrival.time);
            return true;
        }
    }
    auto event = events_.pop();
    if (!event)
        return false;
    cluster_.prefetchContainer(events_.peekContainer());
    now_ = event->time;
    cluster_.setNow(now_);
    ++stats.popped[static_cast<std::size_t>(event->type)];
    switch (event->type) {
      case EventType::IntervalTick:
        ICEB_TRACE(tsink_, obs::TraceKind::IntervalStart, now_,
                   kInvalidFunction, Tier::HighEnd,
                   obs::ColdCause::None,
                   static_cast<std::uint64_t>(event->interval));
        // Sample BEFORE the policy acts: the probe row shows the
        // state the decision saw, not the one it produced.
        if (probes_ != nullptr)
            sampleIntervalProbes(event->interval);
        // Push the closed interval's observations, then let the
        // policy decide. The counts come from the arrivals actually
        // streamed, not from the trace: the policy layer is fed
        // exactly what a live ingest API would have delivered.
        {
            // Wall timers are opt-in (non-deterministic values) and
            // per-interval, so this stays off the per-event hot path.
            const bool wall = hists_ != nullptr && hists_->wall_timing;
            if (event->interval > 0) {
                IntervalObservation closed;
                closed.interval = event->interval - 1;
                closed.arrivals = observed_counts_.data();
                closed.num_functions = observed_counts_.size();
                if (wall) {
                    const auto t0 = std::chrono::steady_clock::now();
                    policy_.onIntervalObserved(closed);
                    hists_->observe_wall_us.record(wallUsSince(t0));
                } else {
                    policy_.onIntervalObserved(closed);
                }
                std::fill(observed_counts_.begin(),
                          observed_counts_.end(), 0u);
            }
            if (wall) {
                const auto t0 = std::chrono::steady_clock::now();
                policy_.onIntervalStart(event->interval, cluster_);
                hists_->decision_wall_us.record(wallUsSince(t0));
            } else {
                policy_.onIntervalStart(event->interval, cluster_);
            }
        }
        openArrivalWindow(event->interval);
        ++intervals_started_;
        break;
      case EventType::InvocationArrival:
        handleArrival(event->fn, event->time);
        break;
      case EventType::PrewarmStart:
        cluster_.handlePrewarmStart(*event, policy_);
        break;
      case EventType::PrewarmReady:
        cluster_.handlePrewarmReady(*event, policy_);
        drainQueue();
        break;
      case EventType::ExecutionComplete: {
        const Container &c = cluster_.container(event->container);
        const TimeMs keep_alive = policy_.keepAliveAfterExecutionMs(
            c.fn, c.tier, now_);
        cluster_.finishExecution(event->container, keep_alive,
                                 policy_);
        drainQueue();
        break;
      }
      case EventType::ContainerExpiry:
        cluster_.handleContainerExpiry(*event, policy_);
        drainQueue();
        break;
    }
    return true;
}

bool
Simulator::step()
{
    return stepImpl(metrics_.eventLoop());
}

std::optional<TimeMs>
Simulator::nextEventTime()
{
    const auto key = events_.peekKey();
    if (window_pos_ < window_.size) {
        const TimeMs arrival_time = window_.data[window_pos_].time;
        if (!key || arrival_time < key->time)
            return arrival_time;
        return key->time;
    }
    if (!key)
        return std::nullopt;
    return key->time;
}

SimulationMetrics
Simulator::finish()
{
    EventLoopStats &stats = metrics_.eventLoop();
    if (events_.peakSize() > stats.peak_pending_events)
        stats.peak_pending_events = events_.peakSize();
    if (events_.peakBucket() > stats.peak_bucket_events)
        stats.peak_bucket_events = events_.peakBucket();

    if (waitCount() > 0) {
        warn("simulation ended with ", waitCount(),
             " invocations still queued (cluster too small for trace)");
    }
    return metrics_.take();
}

SimulationMetrics
Simulator::run()
{
    start();
    EventLoopStats &stats = metrics_.eventLoop();
    while (stepImpl(stats)) {
    }
    return finish();
}

void
Simulator::pushWaiting(FunctionId fn, TimeMs arrival)
{
    wait_queue_.push_back(QueuedInvocation{fn, arrival});
    ICEB_TRACE(tsink_, obs::TraceKind::Enqueued, now_, fn,
               Tier::HighEnd, obs::ColdCause::None,
               static_cast<std::uint64_t>(waitCount()));
    // Peak *storage* length (head offset + population), so reserving
    // it as a hint guarantees an allocation-free repeat run.
    EventLoopStats &stats = metrics_.eventLoop();
    if (wait_queue_.size() > stats.peak_wait_queue)
        stats.peak_wait_queue = wait_queue_.size();
}

void
Simulator::popWaiting()
{
    ++wait_head_;
    if (wait_head_ == wait_queue_.size()) {
        wait_queue_.clear();
        wait_head_ = 0;
    } else if (wait_head_ >= 1024 &&
               wait_head_ * 2 >= wait_queue_.size()) {
        // Slide the live tail down so the vector's length stays
        // proportional to the queue's population (erase reuses the
        // existing capacity; amortised O(1) per pop).
        wait_queue_.erase(wait_queue_.begin(),
                          wait_queue_.begin() +
                              static_cast<std::ptrdiff_t>(wait_head_));
        wait_head_ = 0;
    }
}

void
Simulator::handleArrival(FunctionId fn, TimeMs arrival)
{
    ICEB_TRACE(tsink_, obs::TraceKind::Arrival, arrival, fn,
               Tier::HighEnd, obs::ColdCause::None, 0);
    ++observed_counts_[fn];
    if (waitCount() > 0) {
        // Preserve FIFO order behind already-waiting invocations.
        pushWaiting(fn, arrival);
        return;
    }
    if (!tryPlace(fn, arrival))
        pushWaiting(fn, arrival);
}

bool
Simulator::tryPlace(FunctionId fn, TimeMs arrival)
{
    const std::array<Tier, 2> order = policy_.coldPlacementOrder(fn);

    if (auto acq = cluster_.acquireWarm(fn, order)) {
        startExecution(*acq, fn, arrival, obs::ColdCause::None);
        return true;
    }
    if (auto acq = cluster_.acquireSetup(fn, order)) {
        if (acq->cold)
            metrics_.recordColdCause(true, true);
        startExecution(*acq, fn, arrival,
                       acq->cold ? obs::ColdCause::SetupAttach
                                 : obs::ColdCause::None);
        return true;
    }
    const bool had_live = cluster_.liveCount(fn) > 0;
    if (auto acq = cluster_.acquireCold(fn, order, policy_)) {
        metrics_.recordColdCause(false, had_live);
        startExecution(*acq, fn, arrival,
                       had_live ? obs::ColdCause::AllBusy
                                : obs::ColdCause::NoContainer);
        return true;
    }
    return false;
}

void
Simulator::startExecution(const ClusterState::Acquisition &acq,
                          FunctionId fn, TimeMs arrival,
                          obs::ColdCause cause)
{
    const workload::FunctionProfile &profile = profiles_[fn];
    const TimeMs exec_ms = profile.execMs(acq.tier);
    const TimeMs exec_start = acq.ready_at;
    const TimeMs exec_end = exec_start + exec_ms;

    cluster_.startExecution(acq.id, exec_end);
    policy_.onExecutionStart(fn, acq.tier, acq.cold, now_);

    Event done;
    done.time = exec_end;
    done.type = EventType::ExecutionComplete;
    done.container = acq.id;
    done.fn = fn;
    events_.push(done);

    InvocationOutcome outcome;
    outcome.fn = fn;
    outcome.tier = acq.tier;
    outcome.cold = acq.cold;
    outcome.arrival = arrival;
    outcome.wait_ms = now_ - arrival;
    outcome.cold_start_ms = acq.cold ? exec_start - now_ : 0;
    outcome.exec_ms = exec_ms;
    outcome.overhead_ms = policy_.overheadMs();
    metrics_.recordInvocation(outcome);

    if (hists_ != nullptr) {
        const auto t = static_cast<std::size_t>(tierIndex(acq.tier));
        hists_->wait_queue_ms[t].record(
            static_cast<std::uint64_t>(outcome.wait_ms));
        if (outcome.cold) {
            // "Setup time" is the latency of attaching to an
            // in-setup container (a warm-up that landed late); a true
            // cold start pays the full cold penalty.
            auto &h = cause == obs::ColdCause::SetupAttach
                ? hists_->setup_attach_ms[t]
                : hists_->cold_start_ms[t];
            h.record(static_cast<std::uint64_t>(outcome.cold_start_ms));
        }
    }

    if (outcome.cold) {
        ICEB_TRACE(tsink_, obs::TraceKind::ColdStart, now_, fn, acq.tier,
                   cause,
                   static_cast<std::uint64_t>(outcome.cold_start_ms));
    } else {
        ICEB_TRACE(tsink_, obs::TraceKind::WarmStart, now_, fn, acq.tier,
                   obs::ColdCause::None,
                   static_cast<std::uint64_t>(exec_ms));
    }
}

void
Simulator::sampleIntervalProbes(IntervalIndex interval)
{
    obs::IntervalSample sample;
    sample.interval = static_cast<std::uint32_t>(interval);
    sample.time = now_;
    cluster_.sampleOccupancy(sample.idle_warm, sample.in_setup);
    const SimulationMetrics &accrued = metrics_.current();
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        const auto tier = static_cast<Tier>(t);
        sample.total_mb[t] = cluster_.totalMemoryMb(tier);
        sample.used_mb[t] =
            sample.total_mb[t] - cluster_.vacantMemoryMb(tier);
        sample.keep_alive_cost[t] = accrued.keep_alive[t].totalCost();
    }
    sample.wait_queue = static_cast<std::int64_t>(waitCount());
    probes_->addIntervalSample(sample);
}

LiveCounters
Simulator::liveCounters() const
{
    const SimulationMetrics &m = metrics_.current();
    LiveCounters c;
    c.invocations = m.invocations;
    c.cold_starts = m.cold_starts;
    c.warm_starts = m.warm_starts;
    c.wait_queue = static_cast<std::int64_t>(waitCount());
    for (std::size_t t = 0; t < kNumTiers; ++t)
        c.keep_alive_cost[t] = m.keep_alive[t].totalCost();
    return c;
}

void
Simulator::drainQueue()
{
    while (waitCount() > 0) {
        const QueuedInvocation head = wait_queue_[wait_head_];
        if (!tryPlace(head.fn, head.arrival))
            break;
        popWaiting();
    }
}

SimulationMetrics
runSimulation(const trace::Trace &tr,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options)
{
    Simulator sim(tr, profiles, config, policy, options);
    return sim.run();
}

SimulationMetrics
runSimulation(TraceSource &source,
              const std::vector<workload::FunctionProfile> &profiles,
              const ClusterConfig &config, Policy &policy,
              SimulatorOptions options)
{
    Simulator sim(source, profiles, config, policy, options);
    return sim.run();
}

} // namespace iceb::sim
