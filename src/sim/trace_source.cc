#include "sim/trace_source.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace iceb::sim
{

namespace
{

/**
 * One active interval's burst as sorted offsets into the interval:
 * concurrent requests land within a few seconds of each other (they
 * genuinely need that many instances), at a jittered offset.
 */
void
drawBurst(Rng &rng, std::uint32_t count, TimeMs interval_ms,
          std::vector<TimeMs> &times)
{
    const TimeMs span = std::min<TimeMs>(5000, interval_ms - 1);
    const TimeMs offset =
        static_cast<TimeMs>(rng.uniformInt(0, interval_ms - 1 - span));
    times.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
        times.push_back(offset +
                        static_cast<TimeMs>(rng.uniformInt(0, span)));
    }
    std::sort(times.begin(), times.end());
}

} // namespace

void
sortArrivalBlockByTime(ArrivalRecord *block, ArrivalRecord *scratch,
                       std::size_t n, TimeMs block_base,
                       TimeMs interval_ms)
{
    // The block is already in rank order, so a STABLE sort keyed on
    // time alone yields (time, rank); an LSD radix sort over the
    // in-interval offset does that in a few sequential counting
    // passes instead of an O(n log n) comparison sort.
    if (n <= 1)
        return;
    ArrivalRecord *src = block;
    ArrivalRecord *dst = scratch;
    std::uint32_t counts[256];
    for (int shift = 0; (interval_ms - 1) >> shift != 0; shift += 8) {
        std::fill(std::begin(counts), std::end(counts), 0u);
        for (std::size_t i = 0; i < n; ++i)
            ++counts[((src[i].time - block_base) >> shift) & 0xff];
        std::uint32_t running = 0;
        for (std::uint32_t &count : counts) {
            const std::uint32_t start = running;
            running += count;
            count = start;
        }
        for (std::size_t i = 0; i < n; ++i) {
            dst[counts[((src[i].time - block_base) >> shift) & 0xff]++] =
                src[i];
        }
        std::swap(src, dst);
    }
    if (src != block)
        std::copy(src, src + n, block);
}

// ------------------------------------------------- MaterializedTraceSource

MaterializedTraceSource::MaterializedTraceSource(const trace::Trace &tr,
                                                 std::uint64_t seed)
    : trace_(tr)
{
    build(seed);
}

std::size_t
MaterializedTraceSource::numFunctions() const
{
    return trace_.numFunctions();
}

std::size_t
MaterializedTraceSource::numIntervals() const
{
    return trace_.numIntervals();
}

TimeMs
MaterializedTraceSource::intervalMs() const
{
    return trace_.intervalMs();
}

std::uint64_t
MaterializedTraceSource::totalArrivals() const
{
    return stream_.size();
}

std::size_t
MaterializedTraceSource::maxIntervalArrivals() const
{
    return max_interval_arrivals_;
}

ArrivalWindow
MaterializedTraceSource::intervalWindow(IntervalIndex interval)
{
    const std::size_t iv = static_cast<std::size_t>(interval);
    const std::size_t begin = stream_begin_[iv];
    return ArrivalWindow{stream_.data() + begin,
                         stream_begin_[iv + 1] - begin};
}

void
MaterializedTraceSource::build(std::uint64_t seed)
{
    Rng master(seed);
    const TimeMs interval_ms = trace_.intervalMs();
    arrival_schedule_.resize(trace_.numFunctions());

    std::size_t total_arrivals = 0;
    std::vector<TimeMs> times; // reused across (fn, interval) bursts
    for (FunctionId fn = 0; fn < trace_.numFunctions(); ++fn) {
        Rng rng = master.fork(fn);
        const auto &series = trace_.function(fn);
        auto &schedule = arrival_schedule_[fn];
        schedule.reserve(series.totalInvocations());
        total_arrivals += series.totalInvocations();
        for (std::size_t iv = 0; iv < series.concurrency.size(); ++iv) {
            const std::uint32_t count = series.concurrency[iv];
            if (count == 0)
                continue;
            drawBurst(rng, count, interval_ms, times);
            const TimeMs base = static_cast<TimeMs>(iv) * interval_ms;
            for (const TimeMs t : times)
                schedule.push_back(base + t);
        }
    }

    // Flatten into per-interval blocks in the old push order
    // (function-major, time-sorted within a function), then sort each
    // block by (time, rank) so the run loop can merge it against the
    // event heap front-to-back. Every arrival of interval iv lies in
    // [iv * interval_ms, (iv + 1) * interval_ms), so the blocks
    // partition the schedule exactly as the old per-tick cursor scan
    // consumed it.
    const std::size_t num_intervals = trace_.numIntervals();
    stream_.reserve(total_arrivals);
    stream_begin_.resize(num_intervals + 1);
    std::vector<std::size_t> cursor(trace_.numFunctions(), 0);
    std::vector<ArrivalRecord> scratch; // radix ping-pong buffer
    for (std::size_t iv = 0; iv < num_intervals; ++iv) {
        const std::size_t block_begin = stream_.size();
        stream_begin_[iv] = block_begin;
        const TimeMs block_base = static_cast<TimeMs>(iv) * interval_ms;
        const TimeMs interval_end = block_base + interval_ms;
        for (FunctionId fn = 0; fn < trace_.numFunctions(); ++fn) {
            const auto &schedule = arrival_schedule_[fn];
            std::size_t &pos = cursor[fn];
            while (pos < schedule.size() &&
                   schedule[pos] < interval_end) {
                ArrivalRecord arrival;
                arrival.time = schedule[pos];
                arrival.rank = static_cast<std::uint32_t>(
                    stream_.size() - block_begin);
                arrival.fn = fn;
                stream_.push_back(arrival);
                ++pos;
            }
        }
        const std::size_t n = stream_.size() - block_begin;
        if (n > max_interval_arrivals_)
            max_interval_arrivals_ = n;
        if (n > 1) {
            scratch.resize(n);
            sortArrivalBlockByTime(stream_.data() + block_begin,
                                   scratch.data(), n, block_base,
                                   interval_ms);
        }
    }
    stream_begin_[num_intervals] = stream_.size();
}

// ------------------------------------------------ StreamingWorkloadSource

namespace
{

/** (interval, fn) packed as one 64-bit merge key; seq breaks ties. */
inline std::uint64_t
majorKey(std::uint32_t interval, std::uint32_t fn)
{
    return (static_cast<std::uint64_t>(interval) << 32) | fn;
}

} // namespace

StreamingWorkloadSource::StreamingWorkloadSource(
    trace::FunctionRowSource &rows, StreamingSourceOptions options)
    : options_(options), interval_ms_(rows.intervalMs())
{
    ICEB_ASSERT(options_.chunk_records > 0 && options_.read_records > 0,
                "streaming source buffers must be non-empty");
    ICEB_ASSERT(interval_ms_ > 0 &&
                    interval_ms_ <=
                        std::numeric_limits<std::uint32_t>::max(),
                "interval width must fit the 32-bit spill offset");
    ingest(rows);
}

StreamingWorkloadSource::~StreamingWorkloadSource()
{
    if (spill_ != nullptr)
        std::fclose(spill_);
}

std::size_t
StreamingWorkloadSource::numFunctions() const
{
    return metas_.size();
}

std::size_t
StreamingWorkloadSource::numIntervals() const
{
    return num_intervals_;
}

TimeMs
StreamingWorkloadSource::intervalMs() const
{
    return interval_ms_;
}

std::uint64_t
StreamingWorkloadSource::totalArrivals() const
{
    return total_arrivals_;
}

std::size_t
StreamingWorkloadSource::maxIntervalArrivals() const
{
    return max_interval_arrivals_;
}

void
StreamingWorkloadSource::ingest(trace::FunctionRowSource &rows)
{
    Rng master(options_.seed);
    chunk_.reserve(options_.chunk_records);

    trace::FunctionRow row;
    std::vector<TimeMs> times; // reused across (fn, interval) bursts
    while (rows.next(row)) {
        ICEB_ASSERT(row.id == metas_.size(),
                    "row ids must be dense and ascending");
        // Fork for EVERY function, in id order: forking advances the
        // master stream, so the fork order is part of the determinism
        // contract shared with MaterializedTraceSource::build.
        Rng rng = master.fork(row.id);

        if (metas_.empty()) {
            num_intervals_ = row.num_intervals;
            interval_totals_.assign(num_intervals_, 0);
        } else if (row.num_intervals != num_intervals_) {
            fatal("workload stream row ", row.id, " has ",
                  row.num_intervals, " intervals, expected ",
                  num_intervals_);
        }

        StreamedFunctionMeta meta;
        meta.name.assign(row.name);
        meta.memory_mb = row.memory_mb;
        meta.avg_exec_ms = row.avg_exec_ms;
        meta.cls = row.cls;
        metas_.push_back(std::move(meta));

        for (std::size_t iv = 0; iv < num_intervals_; ++iv) {
            const std::uint32_t count = row.counts[iv];
            if (count == 0)
                continue;
            drawBurst(rng, count, interval_ms_, times);
            for (std::uint32_t i = 0; i < count; ++i) {
                SpillRecord record;
                record.interval = static_cast<std::uint32_t>(iv);
                record.fn = row.id;
                record.seq = i;
                record.offset =
                    static_cast<std::uint32_t>(times[i]);
                chunk_.push_back(record);
                if (chunk_.size() == options_.chunk_records)
                    spillChunk();
            }
            interval_totals_[iv] += count;
            total_arrivals_ += count;
        }
    }
    if (metas_.empty())
        fatal("workload stream contained no functions");

    if (spill_ == nullptr) {
        // Everything fits one chunk: keep it as the single sorted
        // in-memory run and never touch the filesystem.
        sortChunk();
    } else {
        if (!chunk_.empty())
            spillChunk();
        chunk_.clear();
        chunk_.shrink_to_fit(); // the merge reads through run buffers
        for (Run &run : runs_) {
            run.buffer.resize(std::min<std::uint64_t>(
                options_.read_records, run.count));
        }
        heap_.reserve(runs_.size());
    }

    for (std::uint64_t n : interval_totals_) {
        if (n > max_interval_arrivals_)
            max_interval_arrivals_ = static_cast<std::size_t>(n);
    }
    sort_scratch_.clear();
    sort_scratch_.shrink_to_fit();
    block_.reserve(max_interval_arrivals_);
    block_scratch_.resize(max_interval_arrivals_);
}

void
StreamingWorkloadSource::sortChunk()
{
    // Ingest pushes records function-major, intervals ascending within
    // a function and seq ascending within a burst, so a chunk arrives
    // in (fn, interval, seq) order and a STABLE sort on the interval
    // alone yields the full (interval, fn, seq) key order: one O(n)
    // counting pass into the scratch chunk.
    std::vector<std::size_t> starts(num_intervals_ + 1, 0);
    for (const SpillRecord &record : chunk_)
        ++starts[record.interval + 1];
    for (std::size_t iv = 0; iv < num_intervals_; ++iv)
        starts[iv + 1] += starts[iv];
    sort_scratch_.resize(chunk_.size());
    for (const SpillRecord &record : chunk_)
        sort_scratch_[starts[record.interval]++] = record;
    chunk_.swap(sort_scratch_);
}

void
StreamingWorkloadSource::spillChunk()
{
    sortChunk();
    if (spill_ == nullptr) {
        spill_ = std::tmpfile();
        if (spill_ == nullptr)
            fatal("cannot create the arrival spill temp file");
    }
    if (std::fseek(spill_, 0, SEEK_END) != 0)
        fatal("seek failed on the arrival spill file");
    const std::size_t written = std::fwrite(
        chunk_.data(), sizeof(SpillRecord), chunk_.size(), spill_);
    if (written != chunk_.size())
        fatal("short write to the arrival spill file (disk full?)");

    Run run;
    run.first_record = spilled_records_;
    run.count = chunk_.size();
    runs_.push_back(std::move(run));
    spilled_records_ += chunk_.size();
    spilled_bytes_ +=
        static_cast<std::uint64_t>(chunk_.size()) * sizeof(SpillRecord);
    chunk_.clear();
}

void
StreamingWorkloadSource::refill(Run &run)
{
    const std::uint64_t remaining = run.count - run.consumed;
    const std::size_t to_read = static_cast<std::size_t>(
        std::min<std::uint64_t>(run.buffer.size(), remaining));
    if (to_read == 0) {
        run.buf_pos = run.buf_len = 0;
        return;
    }
    const auto byte_offset = static_cast<long>(
        (run.first_record + run.consumed) * sizeof(SpillRecord));
    if (std::fseek(spill_, byte_offset, SEEK_SET) != 0)
        fatal("seek failed on the arrival spill file");
    const std::size_t got = std::fread(
        run.buffer.data(), sizeof(SpillRecord), to_read, spill_);
    if (got != to_read)
        fatal("short read from the arrival spill file");
    run.buf_pos = 0;
    run.buf_len = to_read;
    run.consumed += to_read;
}

/** Advance run @p run_index past its current record; false when the
 * run is exhausted. */
bool
StreamingWorkloadSource::advanceRun(std::size_t run_index)
{
    Run &run = runs_[run_index];
    ++run.buf_pos;
    if (run.buf_pos < run.buf_len)
        return true;
    if (run.consumed < run.count) {
        refill(run);
        return run.buf_len > 0;
    }
    return false;
}

void
StreamingWorkloadSource::heapSiftDown(std::size_t slot)
{
    const auto less = [this](std::uint32_t ra, std::uint32_t rb) {
        const SpillRecord &a = runs_[ra].buffer[runs_[ra].buf_pos];
        const SpillRecord &b = runs_[rb].buffer[runs_[rb].buf_pos];
        const std::uint64_t ka = majorKey(a.interval, a.fn);
        const std::uint64_t kb = majorKey(b.interval, b.fn);
        return ka < kb || (ka == kb && a.seq < b.seq);
    };
    const std::size_t n = heap_.size();
    while (true) {
        const std::size_t left = 2 * slot + 1;
        if (left >= n)
            return;
        std::size_t best = left;
        const std::size_t right = left + 1;
        if (right < n && less(heap_[right], heap_[left]))
            best = right;
        if (!less(heap_[best], heap_[slot]))
            return;
        std::swap(heap_[best], heap_[slot]);
        slot = best;
    }
}

void
StreamingWorkloadSource::beginRun()
{
    run_open_ = true;
    next_interval_ = 0;
    mem_cursor_ = 0;
    if (spill_ == nullptr)
        return;
    heap_.clear();
    for (std::size_t i = 0; i < runs_.size(); ++i) {
        Run &run = runs_[i];
        run.consumed = 0;
        run.buf_pos = run.buf_len = 0;
        refill(run);
        if (run.buf_len > 0)
            heap_.push_back(static_cast<std::uint32_t>(i));
    }
    for (std::size_t i = heap_.size() / 2; i-- > 0;)
        heapSiftDown(i);
}

void
StreamingWorkloadSource::fillBlock(std::size_t iv)
{
    block_.clear();
    const TimeMs base = static_cast<TimeMs>(iv) * interval_ms_;
    if (spill_ == nullptr) {
        while (mem_cursor_ < chunk_.size() &&
               chunk_[mem_cursor_].interval == iv) {
            const SpillRecord &rec = chunk_[mem_cursor_++];
            ArrivalRecord arrival;
            arrival.time = base + static_cast<TimeMs>(rec.offset);
            arrival.rank = static_cast<std::uint32_t>(block_.size());
            arrival.fn = rec.fn;
            block_.push_back(arrival);
        }
    } else {
        // Pop every record of this interval off the k-way merge in
        // (fn, seq) order — which IS the legacy function-major rank
        // order the materialized builder assigns.
        while (!heap_.empty()) {
            const std::uint32_t r = heap_[0];
            const Run &run = runs_[r];
            const SpillRecord &rec = run.buffer[run.buf_pos];
            if (rec.interval != iv)
                break;
            ArrivalRecord arrival;
            arrival.time = base + static_cast<TimeMs>(rec.offset);
            arrival.rank = static_cast<std::uint32_t>(block_.size());
            arrival.fn = rec.fn;
            block_.push_back(arrival);
            if (advanceRun(r)) {
                heapSiftDown(0);
            } else {
                heap_[0] = heap_.back();
                heap_.pop_back();
                if (!heap_.empty())
                    heapSiftDown(0);
            }
        }
    }
    ICEB_ASSERT(block_.size() == interval_totals_[iv],
                "interval window lost arrivals in the merge");
    sortArrivalBlockByTime(block_.data(), block_scratch_.data(),
                           block_.size(), base, interval_ms_);
}

ArrivalWindow
StreamingWorkloadSource::intervalWindow(IntervalIndex interval)
{
    ICEB_ASSERT(run_open_,
                "beginRun() must precede intervalWindow()");
    const std::size_t iv = static_cast<std::size_t>(interval);
    ICEB_ASSERT(iv == next_interval_,
                "a streaming source serves strictly ascending "
                "intervals");
    fillBlock(iv);
    ++next_interval_;
    return ArrivalWindow{block_.data(), block_.size()};
}

std::vector<workload::FunctionProfile>
matchStreamedProfiles(const StreamingWorkloadSource &source,
                      const workload::ProfileMatcher &matcher)
{
    std::vector<workload::FunctionProfile> out;
    out.reserve(source.functions().size());
    for (const StreamedFunctionMeta &meta : source.functions()) {
        out.push_back(matcher.profileFor(meta.name, meta.memory_mb,
                                         meta.avg_exec_ms));
    }
    return out;
}

} // namespace iceb::sim
