/**
 * @file
 * The workload boundary of the simulator: per-interval arrival
 * windows, produced either from a materialized trace::Trace or from
 * an out-of-core streaming pipeline — with byte-identical results.
 *
 * PR 4 turned arrivals into a precomputed radix-sorted stream merged
 * against the event heap by (time, seq). A TraceSource generalizes
 * who owns that stream: the engine asks for one interval's window at
 * a time — a (time, rank)-sorted block of ArrivalRecords whose ranks
 * replay the legacy push order — and never needs the whole schedule
 * at once. MaterializedTraceSource is the in-memory producer (the
 * verbatim PR 4 construction, windows served as slices of one
 * prebuilt stream). StreamingWorkloadSource is the external-memory
 * producer: it ingests function rows once, spills fixed-size sorted
 * chunks of 16-byte arrival records to a temp file, and k-way-merges
 * them back per interval — peak RSS stays bounded by the chunk and
 * read-buffer sizes regardless of trace size, and the merge loop
 * performs no steady-state allocations.
 */

#ifndef ICEB_SIM_TRACE_SOURCE_HH
#define ICEB_SIM_TRACE_SOURCE_HH

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "trace/stream_reader.hh"
#include "trace/trace.hh"
#include "workload/profile_matcher.hh"

namespace iceb::sim
{

/**
 * One arrival of the streamed schedule. @c rank is its position in
 * the order the pre-PR 4 code pushed the containing interval's
 * arrivals (function-major, time-sorted within a function); its
 * effective sequence number is the interval's reserved block base +
 * rank, which is what keeps streamed pops bit-identical to the old
 * per-arrival heap pushes.
 */
struct ArrivalRecord
{
    TimeMs time = 0;
    std::uint32_t rank = 0;
    FunctionId fn = kInvalidFunction;
};

/** A borrowed view of one interval's (time, rank)-sorted arrivals. */
struct ArrivalWindow
{
    const ArrivalRecord *data = nullptr;
    std::size_t size = 0;
};

/**
 * Stable-sort an interval block of arrivals by time (LSD radix over
 * the in-interval offset). The block must already be in rank order;
 * stability then makes the result (time, rank)-ordered. @p scratch is
 * the ping-pong buffer and must hold at least @p n records.
 */
void sortArrivalBlockByTime(ArrivalRecord *block, ArrivalRecord *scratch,
                            std::size_t n, TimeMs block_base,
                            TimeMs interval_ms);

/**
 * Produces a workload's arrival windows for one simulation run.
 *
 * Contract: beginRun() rewinds the source; intervalWindow(iv) is then
 * called for ascending intervals (a streaming source may refuse
 * random access; the materialized one never does) and the returned
 * view stays valid until the next intervalWindow()/beginRun() call.
 * Windows are (time, rank)-sorted with ranks dense in [0, size).
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    virtual std::size_t numFunctions() const = 0;
    virtual std::size_t numIntervals() const = 0;
    virtual TimeMs intervalMs() const = 0;

    /** Total arrivals over the whole horizon (metrics pre-sizing). */
    virtual std::uint64_t totalArrivals() const = 0;

    /** Arrivals in the busiest single interval (buffer pre-sizing). */
    virtual std::size_t maxIntervalArrivals() const = 0;

    /** Rewind to the start of the horizon. */
    virtual void beginRun() = 0;

    /** The given interval's arrival window (see class contract). */
    virtual ArrivalWindow intervalWindow(IntervalIndex interval) = 0;

    /**
     * The materialized trace behind this source, or nullptr for a
     * streamed workload. Offline (oracle) policies require it: a
     * streamed run cannot grant privileged full-trace access.
     */
    virtual const trace::Trace *trace() const { return nullptr; }

    /**
     * Exact per-function arrival times (the OracleContext input), or
     * nullptr for a streamed workload.
     */
    virtual const std::vector<std::vector<TimeMs>> *
    arrivalSchedule() const
    {
        return nullptr;
    }
};

/**
 * TraceSource over a materialized trace::Trace: builds the full
 * jittered per-function schedule and the per-interval radix-sorted
 * stream once at construction (the verbatim PR 4 path), then serves
 * windows as slices. Random access and repeated runs are free.
 */
class MaterializedTraceSource final : public TraceSource
{
  public:
    /** @p tr must outlive the source; @p seed is the jitter seed
     * (SimulatorOptions::seed). */
    MaterializedTraceSource(const trace::Trace &tr, std::uint64_t seed);

    std::size_t numFunctions() const override;
    std::size_t numIntervals() const override;
    TimeMs intervalMs() const override;
    std::uint64_t totalArrivals() const override;
    std::size_t maxIntervalArrivals() const override;
    void beginRun() override {}
    ArrivalWindow intervalWindow(IntervalIndex interval) override;

    const trace::Trace *trace() const override { return &trace_; }
    const std::vector<std::vector<TimeMs>> *
    arrivalSchedule() const override
    {
        return &arrival_schedule_;
    }

  private:
    void build(std::uint64_t seed);

    const trace::Trace &trace_;

    /** Exact arrival times per function (sorted); Oracle's input. */
    std::vector<std::vector<TimeMs>> arrival_schedule_;

    /** All arrivals, grouped per interval, each group sorted by
     * (time, rank); indexed via stream_begin_. */
    std::vector<ArrivalRecord> stream_;
    std::vector<std::size_t> stream_begin_;
    std::size_t max_interval_arrivals_ = 0;
};

/** Resource/identity metadata of one streamed function (the profile
 * matcher's input; O(functions), independent of the horizon). */
struct StreamedFunctionMeta
{
    std::string name;
    MemoryMb memory_mb = 0;
    TimeMs avg_exec_ms = 0;
    trace::FunctionClass cls = trace::FunctionClass::Unknown;
};

/** Knobs for the external-memory arrival generator. */
struct StreamingSourceOptions
{
    /** Jitter seed; MUST equal the SimulatorOptions::seed of the runs
     * this source feeds, or streamed arrivals will not match the
     * materialized path. */
    std::uint64_t seed = 0x51AB'1CEBull;

    /**
     * Arrival records per sort chunk (16 bytes each). A full chunk is
     * counting-sorted into a scratch chunk and spilled to the temp
     * file; this bounds ingest-side memory at the chunk plus its sort
     * scratch, 2 * chunk_records * 16 bytes, regardless of trace size.
     */
    std::size_t chunk_records = std::size_t{1} << 22; // 64 MiB

    /** Records per spill-run read buffer during the k-way merge. */
    std::size_t read_records = std::size_t{1} << 14; // 256 KiB / run
};

/**
 * The out-of-core arrival generator. Construction ingests the row
 * source once: every function's jittered burst times are generated
 * exactly as the materialized path generates them (same per-function
 * RNG forks, same bursts) and encoded as 16-byte
 * (interval, fn, seq, offset) records; full chunks are sorted by
 * (interval, fn, seq) and spilled to an anonymous temp file. Runs
 * then k-way-merge the spill runs: intervalWindow(iv) pops every
 * record of interval iv in (fn, seq) order — which IS the legacy rank
 * order — into a reusable block, radix-sorts it by time, and returns
 * it. All merge-loop buffers are sized during ingest, so repeated
 * runs and the merge loop itself allocate nothing.
 *
 * A workload that never overflows one chunk skips the file entirely
 * and serves windows from the single in-memory sorted run.
 */
class StreamingWorkloadSource final : public TraceSource
{
  public:
    /** Ingests @p rows fully (the row source is not retained). */
    explicit StreamingWorkloadSource(trace::FunctionRowSource &rows,
                                     StreamingSourceOptions options = {});
    ~StreamingWorkloadSource() override;

    StreamingWorkloadSource(const StreamingWorkloadSource &) = delete;
    StreamingWorkloadSource &
    operator=(const StreamingWorkloadSource &) = delete;

    std::size_t numFunctions() const override;
    std::size_t numIntervals() const override;
    TimeMs intervalMs() const override;
    std::uint64_t totalArrivals() const override;
    std::size_t maxIntervalArrivals() const override;
    void beginRun() override;
    ArrivalWindow intervalWindow(IntervalIndex interval) override;

    /** Per-function metadata collected during ingest. */
    const std::vector<StreamedFunctionMeta> &functions() const
    {
        return metas_;
    }

    /** Sorted chunks spilled to the temp file (0 = in-memory mode). */
    std::size_t spillRuns() const { return runs_.size(); }

    /** Bytes written to the spill file during ingest. */
    std::uint64_t spilledBytes() const { return spilled_bytes_; }

  private:
    /** 16-byte external-sort record; offset = time - iv * interval_ms
     * (always < interval_ms, so it fits 32 bits for any sane width). */
    struct SpillRecord
    {
        std::uint32_t interval = 0;
        std::uint32_t fn = 0;
        std::uint32_t seq = 0;
        std::uint32_t offset = 0;
    };

    /** One sorted spill run and its merge cursor state. */
    struct Run
    {
        std::uint64_t first_record = 0; //!< offset into the spill file
        std::uint64_t count = 0;
        // Merge state (reset by beginRun):
        std::uint64_t consumed = 0;  //!< records read from the file
        std::size_t buf_pos = 0;
        std::size_t buf_len = 0;
        std::vector<SpillRecord> buffer;
    };

    void ingest(trace::FunctionRowSource &rows);
    void sortChunk();
    void spillChunk();
    void refill(Run &run);
    bool advanceRun(std::size_t run_index);
    void heapSiftDown(std::size_t slot);
    void fillBlock(std::size_t iv);

    StreamingSourceOptions options_;
    TimeMs interval_ms_ = 0;
    std::size_t num_intervals_ = 0;
    std::uint64_t total_arrivals_ = 0;
    std::size_t max_interval_arrivals_ = 0;

    std::vector<StreamedFunctionMeta> metas_;
    std::vector<std::uint64_t> interval_totals_;

    /** Ingest chunk; in in-memory mode it stays as the single run. */
    std::vector<SpillRecord> chunk_;
    /** sortChunk()'s output, swapped with chunk_; freed after ingest. */
    std::vector<SpillRecord> sort_scratch_;
    std::FILE *spill_ = nullptr;
    std::uint64_t spilled_records_ = 0;
    std::uint64_t spilled_bytes_ = 0;
    std::vector<Run> runs_;

    /** Merge heap: run indices ordered by (interval, fn, seq). */
    std::vector<std::uint32_t> heap_;
    std::size_t mem_cursor_ = 0; //!< in-memory mode merge cursor

    /** Current interval's window (block_ sorted by time). */
    std::vector<ArrivalRecord> block_;
    std::vector<ArrivalRecord> block_scratch_;
    std::size_t next_interval_ = 0;
    bool run_open_ = false;
};

/**
 * Per-function profiles for a streamed workload: every ingested
 * function's metadata through @p matcher, indexed by FunctionId —
 * the streamed twin of ProfileMatcher::profilesFor(trace), producing
 * identical profiles for identical metadata.
 */
std::vector<workload::FunctionProfile>
matchStreamedProfiles(const StreamingWorkloadSource &source,
                      const workload::ProfileMatcher &matcher);

} // namespace iceb::sim

#endif // ICEB_SIM_TRACE_SOURCE_HH
