/**
 * @file
 * Log-bucketed latency histograms: the distributional pillar of the
 * obs layer. IceBreaker's claims are distributional (cold-start
 * ratios, tail service times, keep-alive cost), so scalar probe rows
 * are not enough — this module records full latency distributions at
 * fixed memory cost.
 *
 * Design constraints (mirroring the trace/probe pillars):
 *
 *  - record() is allocation-free and branch-cheap: HDR-style
 *    log-linear bucketing (kSubBits sub-buckets per power of two)
 *    into a fixed std::array, so a hinted run with histograms enabled
 *    still performs zero steady-state allocations.
 *  - Values are unsigned integers in a caller-chosen unit (simulated
 *    ms for latency series, wall-clock µs for the decision/forecast
 *    timers). Values 0..2^kSubBits-1 land in exact singleton buckets;
 *    above that the relative bucket width is 2^-kSubBits.
 */

#ifndef ICEB_OBS_HISTOGRAM_HH
#define ICEB_OBS_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace iceb::obs
{

/** Fixed-footprint log-linear histogram of unsigned integer values. */
class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2^kSubBits buckets per octave. */
    static constexpr unsigned kSubBits = 3;
    static constexpr std::uint64_t kSubMask = (1ull << kSubBits) - 1;

    /**
     * Bucket count covering the full uint64 range: the top index is
     * bucketIndex(UINT64_MAX) = ((63 - kSubBits + 1) << kSubBits) +
     * kSubMask, so one past it is:
     */
    static constexpr std::size_t kNumBuckets =
        ((64 - kSubBits) << kSubBits) + (1u << kSubBits); // 496

    /** Bucket index of @p v (total order, no gaps, no overlaps). */
    static std::size_t bucketIndex(std::uint64_t v) noexcept
    {
        if (v < (1ull << kSubBits))
            return static_cast<std::size_t>(v);
        const unsigned e = 63u - countLeadingZeros(v);
        const std::uint64_t sub = (v >> (e - kSubBits)) & kSubMask;
        return ((static_cast<std::size_t>(e) - kSubBits + 1)
                << kSubBits) +
            static_cast<std::size_t>(sub);
    }

    /** Smallest value mapping to bucket @p i. */
    static std::uint64_t bucketLowerBound(std::size_t i) noexcept
    {
        if (i < (1u << kSubBits))
            return i;
        const std::size_t block = i >> kSubBits; // >= 1
        const std::uint64_t sub = i & kSubMask;
        return ((1ull << kSubBits) + sub)
            << (block - 1); // e = block + kSubBits - 1
    }

    /** Largest value mapping to bucket @p i. */
    static std::uint64_t bucketUpperBound(std::size_t i) noexcept
    {
        if (i < (1u << kSubBits))
            return i;
        const std::size_t block = i >> kSubBits;
        return bucketLowerBound(i) + (1ull << (block - 1)) - 1;
    }

    /** Record one value. Never allocates. */
    void record(std::uint64_t v) noexcept
    {
        ++counts_[bucketIndex(v)];
        ++count_;
        sum_ += v;
        if (v > max_)
            max_ = v;
    }

    /** Values recorded. */
    std::uint64_t count() const noexcept { return count_; }

    /** Sum of recorded values (overflow-unchecked, like metrics). */
    std::uint64_t sum() const noexcept { return sum_; }

    /** Exact maximum recorded value (0 when empty). */
    std::uint64_t max() const noexcept { return max_; }

    /** Occupancy of bucket @p i. */
    std::uint64_t bucketCount(std::size_t i) const noexcept
    {
        return counts_[i];
    }

    /**
     * Upper bound of the bucket holding the q-quantile (0 < q <= 1),
     * clamped to max() so quantile(1.0) is exact. 0 when empty.
     */
    std::uint64_t quantile(double q) const noexcept;

  private:
    static unsigned countLeadingZeros(std::uint64_t v) noexcept
    {
#if defined(__GNUC__) || defined(__clang__)
        return static_cast<unsigned>(__builtin_clzll(v));
#else
        unsigned n = 0;
        for (std::uint64_t bit = 1ull << 63; bit != 0 && !(v & bit);
             bit >>= 1)
            ++n;
        return n;
#endif
    }

    std::array<std::uint64_t, kNumBuckets> counts_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * The fixed family of per-run histograms. Latency series are per tier
 * in simulated milliseconds; the observe and decision timers are
 * wall-clock microseconds around the policy's interval hooks
 * (onIntervalObserved and onIntervalStart respectively) and are
 * only populated when `wall_timing` is on (wall time is inherently
 * non-deterministic, so deterministic exports keep it off — the
 * exporters skip empty histograms, preserving byte-identity).
 */
struct HistogramSet
{
    std::array<LatencyHistogram, kNumTiers> cold_start_ms;
    std::array<LatencyHistogram, kNumTiers> setup_attach_ms;
    std::array<LatencyHistogram, kNumTiers> wait_queue_ms;
    LatencyHistogram decision_wall_us;
    LatencyHistogram observe_wall_us;

    /** Measure wall time around interval hooks (non-deterministic). */
    bool wall_timing = false;

    /** Any values recorded at all? */
    bool empty() const noexcept;
};

/** One named member of a HistogramSet (export enumeration order). */
struct NamedHistogram
{
    const char *series = "";          //!< e.g. "cold_start_ms"
    const char *tier = "";            //!< tier name, "" for wall timers
    const LatencyHistogram *hist = nullptr;
};

/** Fixed-order view of every histogram in @p set. */
std::vector<NamedHistogram> namedHistograms(const HistogramSet &set);

/** One run's histograms, labelled for export. */
struct HistogramRun
{
    std::string run;                        //!< display name
    const HistogramSet *set = nullptr;      //!< may be null
};

/**
 * Tidy CSV: header `run,series,tier,bucket_lo,bucket_hi,count`, one
 * row per occupied bucket, runs in order, series in namedHistograms
 * order. Empty histograms contribute no rows, so default
 * (deterministic) runs produce byte-identical files for every
 * --threads value.
 */
void writeHistogramCsv(std::ostream &out,
                       const std::vector<HistogramRun> &runs);

} // namespace iceb::obs

#endif // ICEB_OBS_HISTOGRAM_HH
