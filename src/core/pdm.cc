#include "core/pdm.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace iceb::core
{

/** Base cut-offs H_E and L_E. */
constexpr double kHighCutoff = 2.0 / 3.0;
constexpr double kLowCutoff = 1.0 / 3.0;
static_assert(kLowCutoff < kHighCutoff, "cut-offs inverted");

Pdm::Pdm(std::size_t num_functions, PdmConfig config)
    : config_(config), functions_(num_functions),
      memory_ratios_(num_functions, 0.0), high_cutoff_(kHighCutoff),
      low_cutoff_(kLowCutoff)
{
    ICEB_ASSERT(config_.window >= 1, "window must be positive");
}

void
Pdm::setMemoryRatios(std::vector<double> ratios)
{
    ICEB_ASSERT(ratios.size() == functions_.size(),
                "one memory ratio per function");
    memory_ratios_ = std::move(ratios);
}

void
Pdm::updateCutoffs(double vacant_high_frac, double vacant_low_frac)
{
    if (!config_.enable_dynamic_cutoffs) {
        high_cutoff_ = kHighCutoff;
        low_cutoff_ = kLowCutoff;
        return;
    }
    // Gain of the occupancy-proportional cut-off adjustment.
    constexpr double kVacancyGain = 0.75;
    // Each cut-off scales in proportion to its tier's occupancy
    // (paper: "changed in proportion to the fraction of vacant
    // memory"). A vacant high-end tier pulls H_E down so more
    // functions qualify for it; as the tier fills, the cut-off
    // returns to its selective base value -- and symmetrically for
    // the low-end tier.
    high_cutoff_ = std::clamp(
        kHighCutoff * (1.0 - kVacancyGain * vacant_high_frac), 0.15,
        0.95);
    low_cutoff_ = std::clamp(
        kLowCutoff * (1.0 - kVacancyGain * vacant_low_frac), 0.02,
        high_cutoff_ - 0.02);
}

WarmTarget
Pdm::targetFromCutoffs(double score) const
{
    if (score > high_cutoff_)
        return WarmTarget::HighEnd;
    if (score < low_cutoff_)
        return WarmTarget::None;
    return WarmTarget::LowEnd;
}

void
Pdm::rollWindow(IntervalIndex interval)
{
    if (interval - window_start_ <
        static_cast<IntervalIndex>(config_.window)) {
        return;
    }
    window_start_ = interval;
    // M_r above which the large-memory safeguard applies.
    constexpr double kLargeMemoryThreshold = 0.5;
    for (std::size_t fn = 0; fn < functions_.size(); ++fn) {
        FunctionState &state = functions_[fn];
        // Large-memory safeguard: big functions that only saw
        // low-end warm-ups last window get high-end next window.
        state.force_high_next_window =
            config_.enable_large_memory_guard &&
            memory_ratios_[fn] >= kLargeMemoryThreshold &&
            state.warmed_low_this_window &&
            !state.warmed_high_this_window;
        state.warmed_high_this_window = false;
        state.warmed_low_this_window = false;
        // Window end also releases the ping-pong anchor.
        state.anchor_score = -1.0;
    }
}

WarmTarget
Pdm::decide(IntervalIndex interval, const UtilityScore &score)
{
    ICEB_ASSERT(score.fn < functions_.size(), "unknown function");
    rollWindow(interval);
    FunctionState &state = functions_[score.fn];

    WarmTarget target = targetFromCutoffs(score.score);

    if (state.force_high_next_window && target != WarmTarget::None)
        target = WarmTarget::HighEnd;

    // Ping-pong safeguard: only guard High <-> Low flips, and freeze
    // the tier while S_u moved by no more than this fraction.
    constexpr double kPingPongThreshold = 0.10;
    const bool is_flip =
        (state.last_target == WarmTarget::HighEnd &&
         target == WarmTarget::LowEnd) ||
        (state.last_target == WarmTarget::LowEnd &&
         target == WarmTarget::HighEnd);
    if (config_.enable_ping_pong_guard && is_flip &&
        state.anchor_score >= 0.0) {
        const double base = std::max(state.anchor_score, 1e-9);
        const double change =
            std::fabs(score.score - state.anchor_score) / base;
        if (change <= kPingPongThreshold)
            target = state.last_target;
    }

    if (target != state.last_target || state.anchor_score < 0.0) {
        state.anchor_score = score.score;
        state.anchor_interval = interval;
    }
    state.last_target = target;
    return target;
}

void
Pdm::noteWarmed(FunctionId fn, Tier tier)
{
    ICEB_ASSERT(fn < functions_.size(), "unknown function");
    if (tier == Tier::HighEnd)
        functions_[fn].warmed_high_this_window = true;
    else
        functions_[fn].warmed_low_this_window = true;
}

} // namespace iceb::core
