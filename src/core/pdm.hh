/**
 * @file
 * IceBreaker's Placement Decision Maker (paper Sec. 3.2-3.3).
 *
 * Maps utility scores to warm-up targets through two cut-offs
 * (base H_E = 2/3, L_E = 1/3):
 *
 *   S_u > H_E            -> warm on a high-end server
 *   L_E <= S_u <= H_E    -> warm on a low-end server
 *   S_u < L_E            -> do not warm up
 *
 * with three refinements from the paper:
 *  - dynamic cut-offs: shifted in proportion to the vacant-memory
 *    imbalance between tiers, so an empty tier attracts warm-ups;
 *  - ping-pong safeguard: the tier does not flip while the function's
 *    utility score moved <= 10% within the local window;
 *  - large-memory safeguard: a big function that spent the previous
 *    window warming only on low-end is promoted to high-end for the
 *    next window.
 */

#ifndef ICEB_CORE_PDM_HH
#define ICEB_CORE_PDM_HH

#include <vector>

#include "common/types.hh"
#include "core/utility_score.hh"

namespace iceb::core
{

/** Where the PDM wants a function warmed. */
enum class WarmTarget : std::uint8_t
{
    None = 0,
    LowEnd,
    HighEnd,
};

/**
 * PDM tuning (paper defaults; the cut-offs, gains and thresholds are
 * constants in pdm.cc).
 */
struct PdmConfig
{
    /** Local window (intervals) for both safeguards. */
    std::size_t window = 60;
    bool enable_dynamic_cutoffs = true;
    bool enable_ping_pong_guard = true;
    bool enable_large_memory_guard = true;
};

/**
 * The placement decision maker. Stateful: tracks per-function
 * placement anchors for the ping-pong guard and per-window tier
 * history for the large-memory safeguard.
 */
class Pdm
{
  public:
    Pdm(std::size_t num_functions, PdmConfig config = {});

    /**
     * Provide each function's raw memory ratio M_r once (static
     * across the run; used by the large-memory safeguard).
     */
    void setMemoryRatios(std::vector<double> ratios);

    /**
     * Update the dynamic cut-offs from tier occupancy.
     * @param vacant_high_frac Vacant fraction of high-end memory.
     * @param vacant_low_frac  Vacant fraction of low-end memory.
     */
    void updateCutoffs(double vacant_high_frac, double vacant_low_frac);

    /**
     * Decide the warm-up target for one scored function at the given
     * interval, applying all safeguards.
     */
    WarmTarget decide(IntervalIndex interval, const UtilityScore &score);

    /**
     * Record that the function was actually warmed on a tier this
     * interval (feeds the large-memory safeguard's window history).
     */
    void noteWarmed(FunctionId fn, Tier tier);

    /** Current effective cut-offs (exposed for tests/benches). */
    double highCutoff() const { return high_cutoff_; }
    double lowCutoff() const { return low_cutoff_; }

    const PdmConfig &config() const { return config_; }

  private:
    struct FunctionState
    {
        WarmTarget last_target = WarmTarget::None;
        double anchor_score = -1.0;          //!< S_u when tier chosen
        IntervalIndex anchor_interval = -1;  //!< when it was chosen
        bool warmed_high_this_window = false;
        bool warmed_low_this_window = false;
        bool force_high_next_window = false;
    };

    WarmTarget targetFromCutoffs(double score) const;
    void rollWindow(IntervalIndex interval);

    PdmConfig config_;
    std::vector<FunctionState> functions_;
    std::vector<double> memory_ratios_;
    double high_cutoff_;
    double low_cutoff_;
    IntervalIndex window_start_ = 0;
};

} // namespace iceb::core

#endif // ICEB_CORE_PDM_HH
