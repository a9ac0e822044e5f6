#include "sim/event_queue.hh"

#include <algorithm>

namespace iceb::sim
{

EventQueue::Payload
EventQueue::packPayload(const Event &event)
{
    Payload p = {};
    switch (event.type) {
      case EventType::InvocationArrival:
        p.fn = event.fn;
        break;
      case EventType::IntervalTick:
        p.interval = event.interval;
        break;
      case EventType::PrewarmStart:
        p.prewarm = PrewarmPayload{event.expiry, event.fn, event.tier};
        break;
      case EventType::PrewarmReady:
      case EventType::ExecutionComplete:
        p.cfn = ContainerFnPayload{event.container, event.fn};
        break;
      case EventType::ContainerExpiry:
        p.expiry = ExpiryPayload{event.container, event.token};
        break;
    }
    return p;
}

void
EventQueue::unpackPayload(Event &event, const Payload &p)
{
    switch (event.type) {
      case EventType::InvocationArrival:
        event.fn = p.fn;
        break;
      case EventType::IntervalTick:
        event.interval = p.interval;
        break;
      case EventType::PrewarmStart:
        event.expiry = p.prewarm.expiry;
        event.fn = p.prewarm.fn;
        event.tier = p.prewarm.tier;
        break;
      case EventType::PrewarmReady:
      case EventType::ExecutionComplete:
        event.container = p.cfn.container;
        event.fn = p.cfn.fn;
        break;
      case EventType::ContainerExpiry:
        event.container = p.expiry.container;
        event.token = p.expiry.token;
        break;
    }
}

void
EventQueue::sideSiftUp(std::size_t i)
{
    const Entry entry = side_[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!earlier(entry, side_[parent]))
            break;
        side_[i] = side_[parent];
        i = parent;
    }
    side_[i] = entry;
}

void
EventQueue::sideSiftDown(std::size_t i)
{
    const std::size_t n = side_.size();
    const Entry entry = side_[i];
    while (true) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= n)
            break;
        const std::size_t last_child =
            first_child + 4 <= n ? first_child + 4 : n;
        std::size_t best = first_child;
        for (std::size_t c = first_child + 1; c < last_child; ++c) {
            if (earlier(side_[c], side_[best]))
                best = c;
        }
        if (!earlier(side_[best], entry))
            break;
        side_[i] = side_[best];
        i = best;
    }
    side_[i] = entry;
}

/**
 * Route an entry to the side heap (its bucket has already been
 * consumed), its wheel bucket, or the overflow list. Does not touch
 * size_: callers account separately, so rescans can re-file entries.
 */
void
EventQueue::insertEntry(const Entry &entry)
{
    const std::int64_t bucket = entry.time >> kBucketShift;
    if (bucket <= epoch_) {
        side_.push_back(entry);
        sideSiftUp(side_.size() - 1);
    } else if (bucket <
               epoch_ + static_cast<std::int64_t>(kNumBuckets)) {
        auto &slot = buckets_[static_cast<std::size_t>(
            bucket & kBucketMask)];
        slot.push_back(entry);
        if (slot.size() > peak_bucket_)
            peak_bucket_ = slot.size();
    } else {
        overflow_.push_back(entry);
    }
}

/**
 * Re-file overflow entries that now fall inside the wheel horizon.
 * The counting-scatter drain relies on bucket vectors being
 * seq-sorted, so a re-file splices into its bucket at the seq
 * position instead of appending. That position is always ahead of
 * every direct push: an entry overflowed for bucket b was pushed
 * while epoch <= b - kNumBuckets, whereas direct pushes to b happen
 * strictly later, so re-files (themselves in push order) belong to a
 * prefix. The splice is O(bucket) but runs once per wheel revolution
 * for the handful of events parked beyond the horizon.
 */
void
EventQueue::rescanOverflow()
{
    std::size_t keep = 0;
    const std::size_t count = overflow_.size();
    for (std::size_t i = 0; i < count; ++i) {
        const Entry entry = overflow_[i];
        const std::int64_t bucket = entry.time >> kBucketShift;
        if (bucket >= epoch_ + static_cast<std::int64_t>(kNumBuckets)) {
            overflow_[keep++] = entry;
        } else if (bucket <= epoch_) {
            // At or behind the bucket being consumed: the side heap
            // orders by the full key and the pop path merges it.
            side_.push_back(entry);
            sideSiftUp(side_.size() - 1);
        } else {
            auto &slot = buckets_[static_cast<std::size_t>(
                bucket & kBucketMask)];
            const auto pos = std::lower_bound(
                slot.begin(), slot.end(), entry,
                [](const Entry &a, const Entry &b) {
                    return a.seq_type < b.seq_type;
                });
            slot.insert(pos, entry);
            if (slot.size() > peak_bucket_)
                peak_bucket_ = slot.size();
        }
    }
    overflow_.resize(keep);
}

/**
 * Advance the wheel until the sorted run or side heap holds the next
 * event. Buckets are consumed whole: everything in bucket epoch_
 * precedes everything in later buckets, so ordering one bucket at a
 * time preserves the global (time, seq) pop order exactly. A wrap
 * rescan can re-file overflow entries into the side heap mid-loop;
 * the current bucket is still drained in the same iteration, and the
 * pop path merges the two.
 *
 * The drain is a stable counting sort on the in-bucket time offset:
 * bucket vectors hold direct pushes only, in ascending seq order, so
 * the stable scatter lands them in exact (time, seq) order without a
 * single key comparison.
 */
void
EventQueue::ensureNear()
{
    while (nearEmpty() && size_ > 0) {
        ++epoch_;
        // Each full wheel revolution brings ~17 more minutes of sim
        // time inside the horizon; re-file what now fits.
        if ((epoch_ & kBucketMask) == 0 && !overflow_.empty())
            rescanOverflow();
        auto &bucket =
            buckets_[static_cast<std::size_t>(epoch_ & kBucketMask)];
        if (!bucket.empty()) {
            const std::size_t n = bucket.size();
            if (run_.size() < n)
                run_.resize(n);
            const TimeMs base = epoch_ << kBucketShift;
            std::uint32_t counts[std::size_t{1} << kBucketShift] = {};
            for (const Entry &entry : bucket)
                ++counts[entry.time - base];
            std::uint32_t running = 0;
            for (std::uint32_t &count : counts) {
                const std::uint32_t start = running;
                running += count;
                count = start;
            }
            for (const Entry &entry : bucket)
                run_[counts[entry.time - base]++] = entry;
            bucket.clear();
            // Kept buffers would each hold the largest burst their
            // bucket ever saw, and over a long run most of the wheel
            // sees one (fig6's IceBreaker run grew ~10 MB of idle
            // buckets). Free a buffer more than 4x the recent mean
            // bucket load, so a burst's memory goes once it drains
            // while a steady load keeps reusing its buffers.
            drain_mean_ += (static_cast<double>(n) - drain_mean_) / 256.0;
            if (static_cast<double>(bucket.capacity()) >
                std::max(static_cast<double>(bucket_keep_),
                         4.0 * drain_mean_)) {
                std::vector<Entry>().swap(bucket);
            }
            run_pos_ = 0;
            run_len_ = n;
        }
    }
}

/** Earliest pending entry; requires size_ > 0 (runs ensureNear). */
const EventQueue::Entry &
EventQueue::front()
{
    ensureNear();
    if (run_pos_ < run_len_ &&
        (side_.empty() || earlier(run_[run_pos_], side_.front()))) {
        return run_[run_pos_];
    }
    return side_.front();
}

/** Remove the entry front() returned. */
void
EventQueue::popFront()
{
    if (run_pos_ < run_len_ &&
        (side_.empty() || earlier(run_[run_pos_], side_.front()))) {
        ++run_pos_;
    } else {
        side_.front() = side_.back();
        side_.pop_back();
        if (!side_.empty())
            sideSiftDown(0);
    }
    --size_;
}

void
EventQueue::push(Event event)
{
    Entry entry;
    entry.time = event.time;
    entry.seq_type = (next_seq_++ << 8) |
        static_cast<std::uint64_t>(event.type);
    entry.payload = packPayload(event);
    insertEntry(entry);
    ++size_;
    if (size_ > peak_size_)
        peak_size_ = size_;
}

std::optional<Event>
EventQueue::pop()
{
    if (size_ == 0)
        return std::nullopt;
    const Entry entry = front();

    Event event;
    event.time = entry.time;
    event.seq = entry.seq();
    event.type = entry.type();
    unpackPayload(event, entry.payload);

    popFront();
    return event;
}

std::optional<TimeMs>
EventQueue::peekTime()
{
    if (size_ == 0)
        return std::nullopt;
    return front().time;
}

ContainerId
EventQueue::peekContainer()
{
    if (size_ == 0)
        return 0;
    const Entry &entry = front();
    switch (entry.type()) {
      case EventType::PrewarmReady:
      case EventType::ExecutionComplete:
        return entry.payload.cfn.container;
      case EventType::ContainerExpiry:
        return entry.payload.expiry.container;
      default:
        return 0;
    }
}

std::optional<EventQueue::Key>
EventQueue::peekKey()
{
    if (size_ == 0)
        return std::nullopt;
    const Entry &entry = front();
    return Key{entry.time, entry.seq()};
}

} // namespace iceb::sim
