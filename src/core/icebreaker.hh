/**
 * @file
 * The IceBreaker policy: FFT-based function-invocation prediction
 * (FIP) + utility-driven placement decision making (PDM) over a
 * heterogeneous cluster. This is the paper's primary contribution
 * (Sec. 3), expressed as a simulator Policy.
 *
 * Per decision interval it:
 *  1. folds the closed interval's pushed arrival observations into
 *     each function's true-negative / false-positive tracker and FIP
 *     window (onIntervalObserved — the policy keeps its own history;
 *     it never reads a trace);
 *  2. predicts every function's invocation concurrency for the new
 *     interval (trend polynomial + top-10 harmonics);
 *  3. scores the predicted-active functions (Eq. 1), min-max
 *     normalised across the candidate set;
 *  4. lets the PDM map scores to warm-up targets through the dynamic
 *     cut-offs and safeguards;
 *  5. warms the predicted concurrency on the chosen tier, spilling to
 *     the other tier under memory pressure (highest scores first).
 */

#ifndef ICEB_CORE_ICEBREAKER_HH
#define ICEB_CORE_ICEBREAKER_HH

#include <vector>

#include "common/units.hh"
#include "core/pdm.hh"
#include "predictors/forecast_pool.hh"
#include "predictors/prediction_tracker.hh"
#include "sim/policy.hh"

namespace iceb::core
{

/** IceBreaker configuration (paper defaults). */
struct IceBreakerConfig
{
    predictors::FftPredictorConfig fip;
    PdmConfig pdm;

    /**
     * Instance-count rounding bias: warm ceil(prediction - deadband)
     * instances. A conservative (upward) bias trades a little
     * keep-alive cost for fewer cold starts on under-predictions.
     */
    double count_deadband = 0.2;

    /**
     * Prediction-driven keep-alive horizon: after an execution the
     * container stays warm until the FIP's next predicted invocation
     * interval, looking at most this many intervals ahead. Bounds the
     * worst-case keep-alive at the OpenWhisk default while making the
     * spend track the function's time-varying arrival probability
     * (the paper's Fig. 1 idea).
     */
    std::size_t keep_alive_horizon = 10;

    /**
     * Forecast width of the batched FIP (the ForecastPool). Blocks
     * are forecast as this many executor participants: 1 runs them
     * inline and the default 0 means the hardware thread count.
     * Inside a runner grid the forecast runs on its own worker plus
     * whichever workers the other runs left parked. Forecasts are
     * byte-identical for any width.
     */
    std::size_t fip_threads = 0;
};

/**
 * The IceBreaker warm-up/keep-alive policy.
 */
class IceBreakerPolicy : public sim::Policy
{
  public:
    explicit IceBreakerPolicy(IceBreakerConfig config = {});

    const char *name() const override { return "icebreaker"; }

    void initialize(const sim::SimContext &ctx) override;
    void onIntervalObserved(
        const sim::IntervalObservation &closed) override;
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
    /** Measured FIP+PDM latency charged to every invocation. */
    static constexpr TimeMs kOverheadMs = 30;
    TimeMs overheadMs() const override { return kOverheadMs; }

    /** The PDM (exposed for tests and the ablation benches). */
    const Pdm &pdm() const { return *pdm_; }

  private:
    struct FunctionState
    {
        predictors::PredictionTracker tracker;
        std::uint32_t invoked_this_interval = 0;
        std::uint32_t cold_this_interval = 0;
        std::uint32_t wasted_this_interval = 0;
        std::uint32_t max_observed = 0;
        double last_score = 0.4; //!< most recent S_u (mid by default)
        /** horizon.front() of the most recent forecast (probe data). */
        double last_prediction = 0.0;
        /** Steps until the next predicted invocation (0 = none). */
        std::uint32_t next_predicted_gap = 0;
        double speedup_raw = 1.0; //!< I_s
        double memory_raw = 0.0;  //!< M_r

        explicit FunctionState(std::size_t window) : tracker(window) {}
    };

    IceBreakerConfig config_;
    std::vector<FunctionState> functions_;
    /**
     * Batched FIP state for every function: lane i is FunctionId i
     * (functions are registered in id order). One forecastAll() per
     * interval forecasts the whole fleet through the SoA block
     * kernels.
     */
    predictors::ForecastPool pool_;
    std::unique_ptr<Pdm> pdm_;

    // Per-interval scratch, hoisted out of onIntervalStart so the
    // decision loop stops re-allocating these for every interval of
    // every scheme run. Contents are rebuilt from scratch each
    // interval; only the capacity persists.
    std::vector<UtilityComponents> candidates_;
    std::vector<std::size_t> counts_;
    std::vector<UtilityScore> scores_;
    std::vector<std::size_t> order_;
};

} // namespace iceb::core

#endif // ICEB_CORE_ICEBREAKER_HH
