/**
 * @file
 * Discrete-event queue for the cluster simulator.
 *
 * A calendar queue (timer wheel): pending events are routed by their
 * timestamp into 2048 ring buckets of ~1/2 second each. Far-future
 * events -- the overwhelming majority under keep-alive policies,
 * which park an expiry event minutes out for every invocation --
 * cost an O(1) bucket append instead of an O(log n) sift through a
 * multi-megabyte comparison heap. The bucket being consumed is
 * drained whole into a sorted run that is read through a cursor;
 * events pushed at-or-behind the consumption point (rare) go to a
 * small side heap that the pop path merges against the cursor, so a
 * pop is one or two key comparisons instead of a heap sift. Events
 * beyond the wheel horizon (~17 minutes) wait in an overflow list
 * that is re-filed each time the wheel wraps.
 *
 * Draining a bucket costs two counting-scatter passes, not a
 * comparison sort: bucket vectors are kept sorted by sequence number
 * (pushes append in seq order; the rare overflow re-file splices in
 * at its seq position), so a stable counting sort on the 9-bit time
 * offset yields exact (time, seq) order.
 *
 * Pop order is identical to a single global heap: bucket time ranges
 * are disjoint, so nothing in a later bucket can precede anything in
 * the sorted run or side heap, and those order by the same strict
 * (time, seq) total order that keeps runs deterministic.
 *
 * Entries are 32 bytes and self-contained: timestamp, a word packing
 * the sequence number with the event type, and a 16-byte union of
 * the type-dependent fields. Keeping the payload in the entry
 * (rather than an index into a side pool) means a pop touches only
 * memory the sequential bucket drain already pulled in; a pooled
 * payload slot allocated minutes of simulated time earlier would be
 * a guaranteed cache miss by the time its event fires. The
 * power-of-two size also keeps entries from straddling cache lines.
 *
 * The public granularity is unchanged: callers push and pop fat
 * Events. A push persists only the fields its type uses; a pop
 * reconstructs those and leaves the rest defaulted.
 *
 * reserveSeqs() hands out a contiguous block of sequence numbers
 * without materialising events -- the simulator uses it to interleave
 * streamed arrivals with heap events in exactly the order the old
 * code produced by pushing every arrival.
 */

#ifndef ICEB_SIM_EVENT_QUEUE_HH
#define ICEB_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace iceb::sim
{

/** Kind of simulation event. */
enum class EventType : std::uint8_t
{
    InvocationArrival, //!< a function request arrives
    IntervalTick,      //!< decision-interval boundary
    PrewarmStart,      //!< a scheduled (Oracle-style) warm-up begins
    PrewarmReady,      //!< container finished setup, becomes idle-warm
    ExecutionComplete, //!< a running invocation finished
    ContainerExpiry,   //!< keep-alive deadline for an idle container
};

/** Number of EventType enumerators (for per-type counters). */
inline constexpr std::size_t kNumEventTypes = 6;

/** One simulation event. Fields beyond the key are type-dependent. */
struct Event
{
    TimeMs time = 0;
    std::uint64_t seq = 0; //!< tie-break for determinism
    EventType type = EventType::IntervalTick;

    FunctionId fn = kInvalidFunction;      //!< arrival / prewarm / exec
    ContainerId container = 0;             //!< container events
    IntervalIndex interval = 0;            //!< IntervalTick
    std::uint64_t token = 0;               //!< expiry invalidation
    Tier tier = Tier::HighEnd;             //!< PrewarmStart
    TimeMs expiry = 0;                     //!< PrewarmStart keep-alive
};

/**
 * Deterministic priority queue of events.
 */
class EventQueue
{
  public:
    /** The ordering key of a pending event. */
    struct Key
    {
        TimeMs time = 0;
        std::uint64_t seq = 0;
    };

    /** Schedule an event; its seq is assigned here. */
    void push(Event event);

    /** Pop the earliest event, or nullopt when drained. */
    std::optional<Event> pop();

    /** Earliest pending time without popping. */
    std::optional<TimeMs> peekTime();

    /** Earliest pending (time, seq) without popping. */
    std::optional<Key> peekKey();

    /**
     * Container referenced by the next pending event, or 0 when the
     * queue is drained or the next event carries no container. Lets
     * the event loop prefetch the container record while the current
     * event's handler is still in flight.
     */
    ContainerId peekContainer();

    /**
     * Claim @p n consecutive sequence numbers without pushing events;
     * returns the first of the block. Events pushed afterwards sort
     * behind the block at equal timestamps.
     */
    std::uint64_t reserveSeqs(std::uint64_t n)
    {
        const std::uint64_t first = next_seq_;
        next_seq_ += n;
        return first;
    }

    /**
     * Pre-size for @p n pending events, and (when non-zero) every
     * wheel bucket for @p per_bucket events. With both set to a prior
     * run's peakSize()/peakBucket(), a repeat run never reallocates.
     */
    void reserve(std::size_t n, std::size_t per_bucket = 0)
    {
        run_.reserve(n);
        side_.reserve(n);
        overflow_.reserve(n);
        if (per_bucket > 0) {
            for (auto &bucket : buckets_)
                bucket.reserve(per_bucket);
        }
        bucket_keep_ = std::max(kKeepBucket, per_bucket);
    }

    /** Pending event count. */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Most events ever pending at once (capacity-hint calibration). */
    std::size_t peakSize() const { return peak_size_; }

    /** Largest single-bucket occupancy (capacity-hint calibration). */
    std::size_t peakBucket() const { return peak_bucket_; }

  private:
    /** log2 of the bucket width: ~1/2 s of simulated time per bucket. */
    static constexpr int kBucketShift = 9;
    /** Ring size; horizon = width * count ~ 17.5 min of sim time. */
    static constexpr std::size_t kNumBuckets = 2048;
    static constexpr std::int64_t kBucketMask =
        static_cast<std::int64_t>(kNumBuckets) - 1;
    /** Entries a drained bucket always keeps capacity for, so sparse
     * queues do not churn small buffers. */
    static constexpr std::size_t kKeepBucket = 32;

    struct ExpiryPayload
    {
        ContainerId container;
        std::uint64_t token;
    };

    struct ContainerFnPayload //!< PrewarmReady / ExecutionComplete
    {
        ContainerId container;
        FunctionId fn;
    };

    struct PrewarmPayload
    {
        TimeMs expiry;
        FunctionId fn;
        Tier tier;
    };

    union Payload
    {
        ExpiryPayload expiry;
        ContainerFnPayload cfn;
        PrewarmPayload prewarm;
        FunctionId fn;          //!< InvocationArrival
        IntervalIndex interval; //!< IntervalTick
    };

    /**
     * Self-contained queue entry: ordering key + payload union.
     * seq_type packs (seq << 8) | type -- seq is unique, so comparing
     * the packed word at equal times is exactly the (time, seq) order.
     */
    struct Entry
    {
        TimeMs time = 0;
        std::uint64_t seq_type = 0;
        Payload payload = {};

        std::uint64_t seq() const { return seq_type >> 8; }
        EventType type() const
        {
            return static_cast<EventType>(seq_type & 0xff);
        }
    };

    static bool earlier(const Entry &a, const Entry &b)
    {
        if (a.time != b.time)
            return a.time < b.time;
        return a.seq_type < b.seq_type;
    }

    static Payload packPayload(const Event &event);
    static void unpackPayload(Event &event, const Payload &payload);
    void sideSiftUp(std::size_t i);
    void sideSiftDown(std::size_t i);
    void insertEntry(const Entry &entry);
    void ensureNear();
    void rescanOverflow();
    const Entry &front();
    void popFront();

    bool nearEmpty() const
    {
        return run_pos_ >= run_len_ && side_.empty();
    }

    std::vector<Entry> run_;   //!< current bucket, sorted
    std::size_t run_pos_ = 0;  //!< consumption cursor into run_
    std::size_t run_len_ = 0;  //!< live prefix of run_ (rest is stale)
    std::vector<Entry> side_;  //!< 4-ary heap: pushes behind epoch_
    std::vector<std::vector<Entry>> buckets_{kNumBuckets};
    std::vector<Entry> overflow_; //!< beyond the wheel horizon
    std::int64_t epoch_ = 0; //!< bucket index consumed into run_
    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;
    std::size_t peak_size_ = 0;
    std::size_t peak_bucket_ = 0;
    /** A drained bucket may always keep this much capacity (reserve()
     * raises it to the per-bucket hint, so hinted runs never free). */
    std::size_t bucket_keep_ = kKeepBucket;
    /** Moving average (over ~256 drains) of entries per drained
     * bucket; a drained bucket also keeps up to 4x this. */
    double drain_mean_ = 0.0;
};

} // namespace iceb::sim

#endif // ICEB_SIM_EVENT_QUEUE_HH
