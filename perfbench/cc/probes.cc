#include "probes.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "math/fft.hh"
#include "math/harmonics.hh"
#include "math/polyfit.hh"
#include "predictors/forecast_pool.hh"

namespace perfbench
{

// ------------------------------------------------------------ collector

std::uint32_t
ProbeCollector::nextRunId()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return next_run_++;
}

void
ProbeCollector::add(RunProbe probe)
{
    std::lock_guard<std::mutex> lock(mutex_);
    runs_.push_back(std::move(probe));
}

std::vector<RunProbe>
ProbeCollector::take()
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RunProbe> runs = std::move(runs_);
    runs_.clear();
    return runs;
}

// ------------------------------------------------------ per-run state

namespace
{

// IceBreaker forecasts keep_alive_horizon + 1 = 11 steps per interval.
constexpr std::size_t kForecastHorizon = 11;

// Math sampling: every kMathFnStride-th function, every
// kMathIntervalStride-th interval once its window is full.
constexpr std::size_t kMathFnStride = 4;
constexpr std::size_t kMathIntervalStride = 10;

/** Counts the warm-up traffic a policy sends to the cluster. */
class CountingWarmup final : public sim::WarmupInterface
{
  public:
    CountingWarmup(sim::WarmupInterface &inner, RunProbe &probe)
        : inner_(inner), probe_(probe)
    {
    }

    std::size_t ensureWarm(FunctionId fn, Tier tier, std::size_t count,
                           TimeMs expiry) override
    {
        const std::size_t got = inner_.ensureWarm(fn, tier, count, expiry);
        probe_.warm_requested += count;
        probe_.warm_provisioned += got;
        return got;
    }
    std::size_t ensureWarmEvicting(FunctionId fn, Tier tier,
                                   std::size_t count, TimeMs expiry,
                                   sim::Policy &policy) override
    {
        const std::size_t got =
            inner_.ensureWarmEvicting(fn, tier, count, expiry, policy);
        probe_.warm_requested += count;
        probe_.warm_provisioned += got;
        return got;
    }
    void schedulePrewarm(FunctionId fn, Tier tier, TimeMs start_time,
                         TimeMs expiry) override
    {
        inner_.schedulePrewarm(fn, tier, start_time, expiry);
    }
    MemoryMb vacantMemoryMb(Tier tier) const override
    {
        return inner_.vacantMemoryMb(tier);
    }
    MemoryMb totalMemoryMb(Tier tier) const override
    {
        return inner_.totalMemoryMb(tier);
    }
    std::size_t warmCount(FunctionId fn, Tier tier) const override
    {
        return inner_.warmCount(fn, tier);
    }
    TimeMs now() const override { return inner_.now(); }

  private:
    sim::WarmupInterface &inner_;
    RunProbe &probe_;
};

} // namespace

/**
 * The non-template half of TimedPolicy: boundary bookkeeping, spans,
 * the shadow forecaster and math sampling.
 */
class TimedPolicyState
{
  public:
    TimedPolicyState(std::string scheme, ProbeOptions options,
                     ProbeCollector &collector)
        : options_(options), collector_(collector), born_(Clock::now())
    {
        probe_.scheme = std::move(scheme);
        probe_.run = collector_.nextRunId();
    }

    ~TimedPolicyState()
    {
        probe_.wall_s = secondsBetween(born_, Clock::now());
        collector_.add(std::move(probe_));
    }

    TimedPolicyState(const TimedPolicyState &) = delete;
    TimedPolicyState &operator=(const TimedPolicyState &) = delete;

    bool traced() const { return options_.traced; }
    RunProbe &probe() { return probe_; }

    void initialize(std::size_t num_functions)
    {
        num_functions_ = num_functions;
        if (!options_.traced || !options_.shadow_forecast)
            return;
        predictors::ForecastPoolOptions pool_options;
        pool_options.threads = options_.fip_threads;
        shadow_ = std::make_unique<predictors::ForecastPool>(pool_options);
        for (std::size_t fn = 0; fn < num_functions; ++fn)
            shadow_->addFunction(fip_);
        const std::size_t sampled =
            (num_functions + kMathFnStride - 1) / kMathFnStride;
        rings_.assign(sampled * fip_.window, 0.0);
        ring_fill_ = 0;
    }

    /** A new interval boundary starts at @p now. */
    void beginBoundary(Clock::time_point now, IntervalIndex interval)
    {
        if (has_boundary_) {
            probe_.interval_ms.push_back(
                1000.0 * secondsBetween(boundary_start_, now));
        }
        has_boundary_ = true;
        boundary_start_ = now;
        boundary_open_ = true;
        pending_decision_s_ = 0.0;
        interval_ = static_cast<std::uint32_t>(interval);
        boundary_span_ = addSpan("interval", now, now, -1);
    }

    bool boundaryOpen() const { return boundary_open_; }

    void addObserve(Clock::time_point start, Clock::time_point end)
    {
        const double s = secondsBetween(start, end);
        probe_.observe_s += s;
        pending_decision_s_ += s;
        addSpan("observe", start, end, boundary_span_);
    }

    void addDecide(Clock::time_point start, Clock::time_point end)
    {
        const double s = secondsBetween(start, end);
        probe_.decide_s += s;
        addSpan("decide", start, end, boundary_span_);
        boundary_open_ = false;
        probe_.decision_ms.push_back(1000.0 * (pending_decision_s_ + s));
    }

    void addWindow(Clock::time_point start, Clock::time_point end)
    {
        probe_.window_s += secondsBetween(start, end);
        addSpan("window", start, end, boundary_span_);
    }

    void shadowObserve(const sim::IntervalObservation &closed)
    {
        if (shadow_ == nullptr)
            return;
        const Clock::time_point start = Clock::now();
        for (std::size_t fn = 0; fn < num_functions_; ++fn) {
            shadow_->observe(fn,
                             static_cast<double>(closed.arrivalsFor(
                                 static_cast<FunctionId>(fn))));
        }
        const Clock::time_point end = Clock::now();
        probe_.shadow_observe_s += secondsBetween(start, end);
        addSpan("predictors.observe", start, end, boundary_span_);

        // Math-sample rings (benchmark bookkeeping, untimed).
        const std::size_t window = fip_.window;
        const std::size_t pos = ring_fill_ % window;
        for (std::size_t fn = 0, lane = 0; fn < num_functions_;
             fn += kMathFnStride, ++lane) {
            rings_[lane * window + pos] = static_cast<double>(
                closed.arrivalsFor(static_cast<FunctionId>(fn)));
        }
        ++ring_fill_;
    }

    void shadowForecast(IntervalIndex interval)
    {
        if (shadow_ == nullptr)
            return;
        const Clock::time_point start = Clock::now();
        shadow_->forecastAll(kForecastHorizon);
        const Clock::time_point end = Clock::now();
        probe_.forecast_s += secondsBetween(start, end);
        probe_.forecasts += num_functions_;
        addSpan("forecast", start, end, boundary_span_);
        if (ring_fill_ >= fip_.window &&
            interval % kMathIntervalStride == 0)
            sampleMath();
    }

  private:
    std::int64_t addSpan(const char *name, Clock::time_point start,
                         Clock::time_point end, std::int64_t parent)
    {
        if (!options_.traced)
            return -1;
        Span span;
        span.name = name;
        span.run = probe_.run;
        span.interval = interval_;
        span.parent = parent;
        span.start_s = collector_.since(start);
        span.end_s = collector_.since(end);
        probe_.spans.push_back(std::move(span));
        if (parent >= 0) {
            Span &up = probe_.spans[static_cast<std::size_t>(parent)];
            up.end_s = std::max(up.end_s, probe_.spans.back().end_s);
        }
        return static_cast<std::int64_t>(probe_.spans.size()) - 1;
    }

    /**
     * Time the FIP's math on every sampled full, non-silent window:
     * the trend fit and detrend, the real FFT of the residual, and the
     * least-squares harmonic fit at refined peak frequencies -- the
     * exact call sequence FftPredictor::forecastHorizon makes.
     */
    void sampleMath()
    {
        const std::size_t n = fip_.window;
        const std::size_t half = n / 2;
        const std::size_t head = ring_fill_ % n; // oldest sample
        window_.resize(n);
        if (!harm_ws_.plan || harm_ws_.plan->size() != n)
            harm_ws_.plan = math::fftPlanFor(n);
        harm_ws_.spectrum.resize(n);
        const std::size_t lanes = rings_.size() / n;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const double *ring = rings_.data() + lane * n;
            bool silent = true;
            for (std::size_t i = 0; i < n; ++i) {
                window_[i] = ring[(head + i) % n];
                silent = silent && window_[i] == 0.0;
            }
            if (silent)
                continue;

            const Clock::time_point t0 = Clock::now();
            math::polyfitSeries(window_.data(), n, fip_.poly_degree,
                                trend_, poly_ws_);
            math::detrendInto(window_.data(), n, trend_, residual_);
            const Clock::time_point t1 = Clock::now();
            harm_ws_.plan->forwardReal(residual_.data(),
                                       harm_ws_.spectrum.data(),
                                       harm_ws_.fft);
            harm_ws_.magnitude.assign(half + 1, 0.0);
            for (std::size_t k = 1; k <= half; ++k)
                harm_ws_.magnitude[k] = std::abs(harm_ws_.spectrum[k]);
            const Clock::time_point t2 = Clock::now();
            math::decomposeFromMagnitudes(residual_.data(), n,
                                          fip_.harmonics, harmonics_,
                                          harm_ws_, /*fast_trig=*/false);
            const Clock::time_point t3 = Clock::now();

            probe_.trend_ns += 1e9 * secondsBetween(t0, t1);
            probe_.fft_ns += 1e9 * secondsBetween(t1, t2);
            probe_.harmonic_fit_ns += 1e9 * secondsBetween(t2, t3);
            probe_.harmonics += harmonics_.size();
            ++probe_.math_windows;
        }
    }

    const ProbeOptions options_;
    ProbeCollector &collector_;
    const Clock::time_point born_;
    RunProbe probe_;
    std::size_t num_functions_ = 0;

    // Boundary bookkeeping.
    bool has_boundary_ = false;
    bool boundary_open_ = false;
    Clock::time_point boundary_start_;
    double pending_decision_s_ = 0.0;
    std::int64_t boundary_span_ = -1;
    std::uint32_t interval_ = 0;

    // Shadow forecaster and math sampling (traced IceBreaker only).
    const predictors::FftPredictorConfig fip_{};
    std::unique_ptr<predictors::ForecastPool> shadow_;
    std::vector<double> rings_; //!< lane-major sampled windows
    std::size_t ring_fill_ = 0; //!< observations pushed so far
    std::vector<double> window_;
    std::vector<double> residual_;
    math::Polynomial trend_;
    math::PolyfitWorkspace poly_ws_;
    math::HarmonicsWorkspace harm_ws_;
    std::vector<math::Harmonic> harmonics_;
};

// -------------------------------------------------------- TimedPolicy

template <class Base>
TimedPolicy<Base>::TimedPolicy(std::unique_ptr<sim::Policy> inner,
                               std::string scheme, ProbeOptions options,
                               ProbeCollector &collector)
    : inner_(std::move(inner)),
      state_(std::make_unique<TimedPolicyState>(std::move(scheme), options,
                                                collector))
{
}

template <class Base> TimedPolicy<Base>::~TimedPolicy() = default;

template <class Base>
void
TimedPolicy<Base>::initialize(const sim::SimContext &ctx)
{
    Base::initialize(ctx);
    inner_->initialize(ctx);
    state_->initialize(ctx.num_functions);
}

template <class Base>
void
TimedPolicy<Base>::initializeOracle(const sim::OracleContext &oracle)
{
    if constexpr (std::is_base_of_v<sim::OfflinePolicy, Base>) {
        Base::initializeOracle(oracle);
        static_cast<sim::OfflinePolicy &>(*inner_).initializeOracle(oracle);
    } else {
        (void)oracle;
    }
}

template <class Base>
void
TimedPolicy<Base>::onIntervalObserved(const sim::IntervalObservation &closed)
{
    state_->beginBoundary(Clock::now(), closed.interval + 1);
    const Clock::time_point start = Clock::now();
    inner_->onIntervalObserved(closed);
    state_->addObserve(start, Clock::now());
    if (state_->traced())
        state_->shadowObserve(closed);
}

template <class Base>
void
TimedPolicy<Base>::onIntervalStart(IntervalIndex interval,
                                   sim::WarmupInterface &cluster)
{
    if (!state_->boundaryOpen())
        state_->beginBoundary(Clock::now(), interval);
    if (state_->traced()) {
        state_->shadowForecast(interval);
        CountingWarmup counting(cluster, state_->probe());
        const Clock::time_point start = Clock::now();
        inner_->onIntervalStart(interval, counting);
        state_->addDecide(start, Clock::now());
        return;
    }
    const Clock::time_point start = Clock::now();
    inner_->onIntervalStart(interval, cluster);
    state_->addDecide(start, Clock::now());
}

template <class Base>
void
TimedPolicy<Base>::noteWindow(Clock::time_point start, Clock::time_point end)
{
    state_->addWindow(start, end);
}

// Per-event hooks: plain forwarding untraced, aggregated timers traced.

namespace
{

template <class Fn>
auto
timedCall(TimedPolicyState &state, Fn &&fn)
{
    if (!state.traced())
        return fn();
    const Clock::time_point start = Clock::now();
    struct Accrue
    {
        TimedPolicyState &state;
        Clock::time_point start;
        ~Accrue()
        {
            state.probe().event_hook_s +=
                secondsBetween(start, Clock::now());
            ++state.probe().event_hook_calls;
        }
    } accrue{state, start};
    return fn();
}

} // namespace

template <class Base>
void
TimedPolicy<Base>::onExecutionStart(FunctionId fn, Tier tier, bool cold,
                                    TimeMs now)
{
    timedCall(*state_,
              [&] { inner_->onExecutionStart(fn, tier, cold, now); });
}

template <class Base>
TimeMs
TimedPolicy<Base>::keepAliveAfterExecutionMs(FunctionId fn, Tier tier,
                                             TimeMs now)
{
    return timedCall(*state_, [&] {
        return inner_->keepAliveAfterExecutionMs(fn, tier, now);
    });
}

template <class Base>
std::array<Tier, 2>
TimedPolicy<Base>::coldPlacementOrder(FunctionId fn)
{
    return timedCall(*state_,
                     [&] { return inner_->coldPlacementOrder(fn); });
}

template <class Base>
double
TimedPolicy<Base>::evictionPriority(FunctionId fn, Tier tier,
                                    TimeMs last_used, TimeMs now)
{
    return timedCall(*state_, [&] {
        return inner_->evictionPriority(fn, tier, last_used, now);
    });
}

template <class Base>
void
TimedPolicy<Base>::onWarmupWasted(FunctionId fn, Tier tier, TimeMs now)
{
    if (state_->traced())
        ++state_->probe().warmups_wasted;
    timedCall(*state_, [&] { inner_->onWarmupWasted(fn, tier, now); });
}

template <class Base>
void
TimedPolicy<Base>::onEviction(FunctionId fn, Tier tier, TimeMs now)
{
    timedCall(*state_, [&] { inner_->onEviction(fn, tier, now); });
}

template class TimedPolicy<sim::Policy>;
template class TimedPolicy<sim::OfflinePolicy>;

std::unique_ptr<sim::Policy>
makeTimedPolicy(std::unique_ptr<sim::Policy> inner, std::string scheme,
                ProbeOptions options, ProbeCollector &collector)
{
    if (dynamic_cast<sim::OfflinePolicy *>(inner.get()) != nullptr) {
        return std::make_unique<TimedPolicy<sim::OfflinePolicy>>(
            std::move(inner), std::move(scheme), options, collector);
    }
    return std::make_unique<TimedPolicy<sim::Policy>>(
        std::move(inner), std::move(scheme), options, collector);
}

// ------------------------------------------------------ TimedTraceSource

sim::ArrivalWindow
TimedTraceSource::intervalWindow(IntervalIndex interval)
{
    const Clock::time_point start = Clock::now();
    const sim::ArrivalWindow window = inner_.intervalWindow(interval);
    const Clock::time_point end = Clock::now();
    if (policy_ != nullptr)
        policy_->noteWindow(start, end);
    return window;
}

} // namespace perfbench
