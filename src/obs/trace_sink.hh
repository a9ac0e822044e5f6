/**
 * @file
 * Structured event tracing: a per-run binary ring buffer of
 * fixed-size lifecycle records, exportable as Chrome `trace_event`
 * JSON (loadable in Perfetto or chrome://tracing).
 *
 * Design constraints (see DESIGN.md section 10):
 *
 *  - The record path is branch-plus-store cheap: one bounds-free
 *    masked index into a preallocated ring, no allocation, no
 *    formatting. All formatting happens at export time.
 *  - The ring keeps the NEWEST records: when a run produces more
 *    events than the ring holds, the oldest are overwritten and
 *    counted in dropped(). Capacity is fixed at construction, so a
 *    traced run still performs zero steady-state allocations.
 *  - Instrumentation sites use the ICEB_TRACE macro, which costs a
 *    single predictable null-pointer test when no sink is attached.
 *
 * Timestamps are simulated milliseconds (the simulator's clock), not
 * wall time; the Chrome exporter scales them to microseconds, the
 * unit trace_event requires.
 */

#ifndef ICEB_OBS_TRACE_SINK_HH
#define ICEB_OBS_TRACE_SINK_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"

namespace iceb::obs
{

/** What happened. One enumerator per instrumented lifecycle edge. */
enum class TraceKind : std::uint8_t
{
    IntervalStart = 0, //!< decision-interval boundary (arg = interval)
    Arrival,           //!< invocation arrived (fn)
    WarmStart,         //!< served from the warm pool (arg = exec ms)
    ColdStart,         //!< cold start with cause (arg = cold-start ms)
    Enqueued,          //!< no capacity; joined wait queue (arg = depth)
    WarmupIssued,      //!< policy created warm-up(s) (arg = count)
    WarmupConsumed,    //!< a prewarmed instance served an invocation
    WarmupWasted,      //!< prewarmed instance destroyed unused
    Eviction,          //!< idle container evicted under pressure
    Expiry,            //!< keep-alive lapsed (arg = idle ms)
};

/** Number of TraceKind enumerators (for per-kind counters). */
inline constexpr std::size_t kNumTraceKinds = 10;

/** Why an invocation cold-started (mirrors the metrics split). */
enum class ColdCause : std::uint8_t
{
    None = 0,    //!< not a cold start
    NoContainer, //!< nothing live existed for the function
    AllBusy,     //!< live instances exist but all are busy
    SetupAttach, //!< attached to an in-setup container (warmed late)
};

/** One fixed-size binary trace record. */
struct TraceRecord
{
    TimeMs time = 0;        //!< simulated ms
    std::uint64_t arg = 0;  //!< kind-dependent (duration, count, ...)
    FunctionId fn = kInvalidFunction;
    std::uint8_t kind = 0;  //!< TraceKind
    std::uint8_t tier = 0;  //!< Tier
    std::uint8_t cause = 0; //!< ColdCause (ColdStart only)
    std::uint8_t pad = 0;
};

static_assert(sizeof(TraceRecord) == 24, "trace records are 24 bytes");

/**
 * Per-run ring buffer of TraceRecords. Not thread-safe by design:
 * every simulation run owns exactly one sink (that is what keeps
 * multi-threaded grids deterministic — see harness/observe.hh).
 */
class TraceSink
{
  public:
    /** Default ring capacity (records; 24 B each => 6 MiB). */
    static constexpr std::size_t kDefaultCapacity = 1u << 18;

    /** @param capacity Ring size; rounded up to a power of two. */
    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    /** Append one record (overwrites the oldest when full). */
    void record(TraceKind kind, TimeMs time, FunctionId fn, Tier tier,
                ColdCause cause, std::uint64_t arg) noexcept
    {
        TraceRecord &r = ring_[static_cast<std::size_t>(head_) & mask_];
        ++head_;
        r.time = time;
        r.arg = arg;
        r.fn = fn;
        r.kind = static_cast<std::uint8_t>(kind);
        r.tier = static_cast<std::uint8_t>(tier);
        r.cause = static_cast<std::uint8_t>(cause);
        ++counts_[static_cast<std::size_t>(kind)];
    }

    /** Records ever recorded (including overwritten ones). */
    std::uint64_t recorded() const { return head_; }

    /** Records lost to ring wrap-around. */
    std::uint64_t dropped() const
    {
        return head_ > ring_.size() ? head_ - ring_.size() : 0;
    }

    /** Records currently retained. */
    std::size_t size() const
    {
        return head_ < ring_.size() ? static_cast<std::size_t>(head_)
                                    : ring_.size();
    }

    /** Ring capacity in records. */
    std::size_t capacity() const { return ring_.size(); }

    /** Retained record @p i, oldest first (0 <= i < size()). */
    const TraceRecord &at(std::size_t i) const
    {
        const std::uint64_t base = head_ - size();
        return ring_[static_cast<std::size_t>(base + i) & mask_];
    }

    /** Records ever recorded of one kind. */
    std::uint64_t count(TraceKind kind) const
    {
        return counts_[static_cast<std::size_t>(kind)];
    }

  private:
    std::vector<TraceRecord> ring_;
    std::size_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::array<std::uint64_t, kNumTraceKinds> counts_{};
};

/** Display name of a trace kind (used by the Chrome exporter). */
const char *traceKindName(TraceKind kind);

/** Display name of a cold-start cause. */
const char *coldCauseName(ColdCause cause);

class ProbeTable; // probes.hh

/** One run's observations, labelled for export. */
struct TraceRun
{
    std::string name;                    //!< Chrome process name
    const TraceSink *trace = nullptr;    //!< may be null (probes only)
    const ProbeTable *probes = nullptr;  //!< emitted as counter events
};

/**
 * Write runs as one Chrome trace_event JSON document: each run
 * becomes a process (pid = position + 1) with named threads per
 * record family, cold/warm starts as duration events, the remaining
 * records as instants, and probe samples as counter tracks. Output
 * bytes depend only on @p runs (deterministic formatting).
 */
void writeChromeTrace(std::ostream &out,
                      const std::vector<TraceRun> &runs);

} // namespace iceb::obs

/**
 * Record a trace event through a TraceSink pointer (null = tracing
 * off for this run). The argument expressions are evaluated only when
 * a sink is attached.
 */
#define ICEB_TRACE(sink, kind, time, fn, tier, cause, arg)              \
    do {                                                                \
        if (sink) {                                                     \
            (sink)->record((kind), (time), (fn), (tier), (cause),       \
                           (arg));                                      \
        }                                                               \
    } while (0)

#endif // ICEB_OBS_TRACE_SINK_HH
