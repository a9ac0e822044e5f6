#include "obs/trace_sink.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>

#include "obs/probes.hh"

namespace iceb::obs
{

namespace
{

std::size_t roundUpPow2(std::size_t v)
{
    std::size_t p = 1;
    while (p < v) {
        p <<= 1;
    }
    return p;
}

} // namespace

TraceSink::TraceSink(std::size_t capacity)
    : ring_(roundUpPow2(capacity < 2 ? 2 : capacity)),
      mask_(ring_.size() - 1)
{
}

const char *traceKindName(TraceKind kind)
{
    switch (kind) {
    case TraceKind::IntervalStart: return "interval_start";
    case TraceKind::Arrival: return "arrival";
    case TraceKind::WarmStart: return "warm_start";
    case TraceKind::ColdStart: return "cold_start";
    case TraceKind::Enqueued: return "enqueued";
    case TraceKind::WarmupIssued: return "warmup_issued";
    case TraceKind::WarmupConsumed: return "warmup_consumed";
    case TraceKind::WarmupWasted: return "warmup_wasted";
    case TraceKind::Eviction: return "eviction";
    case TraceKind::Expiry: return "expiry";
    }
    return "unknown";
}

const char *coldCauseName(ColdCause cause)
{
    switch (cause) {
    case ColdCause::None: return "none";
    case ColdCause::NoContainer: return "no_container";
    case ColdCause::AllBusy: return "all_busy";
    case ColdCause::SetupAttach: return "setup_attach";
    }
    return "unknown";
}

namespace
{

/**
 * Chrome trace_event thread ids, one virtual thread per record
 * family so Perfetto lays related events out on shared tracks.
 */
enum ChromeTid : int
{
    kTidIntervals = 0,
    kTidInvocations = 1,
    kTidWarmup = 2,
    kTidReclaim = 3,
};

int chromeTid(TraceKind kind)
{
    switch (kind) {
    case TraceKind::IntervalStart:
        return kTidIntervals;
    case TraceKind::Arrival:
    case TraceKind::WarmStart:
    case TraceKind::ColdStart:
    case TraceKind::Enqueued:
        return kTidInvocations;
    case TraceKind::WarmupIssued:
    case TraceKind::WarmupConsumed:
    case TraceKind::WarmupWasted:
        return kTidWarmup;
    case TraceKind::Eviction:
    case TraceKind::Expiry:
        return kTidReclaim;
    }
    return kTidInvocations;
}

const char *chromeTidName(int tid)
{
    switch (tid) {
    case kTidIntervals: return "intervals";
    case kTidInvocations: return "invocations";
    case kTidWarmup: return "warmup";
    case kTidReclaim: return "reclaim";
    }
    return "other";
}

/** Small fixed-buffer line formatter (snprintf => locale-immune). */
class LineWriter
{
  public:
    explicit LineWriter(std::ostream &out) : out_(out) {}

    /** Emit one JSON event object; handles the comma separation. */
    template <typename... Args>
    void event(const char *fmt, Args... args)
    {
        char buf[512];
        const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
        if (n <= 0 || static_cast<std::size_t>(n) >= sizeof(buf)) {
            return; // never expected; skip rather than truncate
        }
        if (!first_) {
            out_ << ",\n";
        }
        first_ = false;
        out_ << buf;
    }

  private:
    std::ostream &out_;
    bool first_ = true;
};

/** Simulated ms -> trace_event µs. */
long long toUs(TimeMs ms) { return static_cast<long long>(ms) * 1000; }

void writeRunMetadata(LineWriter &w, int pid, const std::string &name)
{
    w.event("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
            "\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}",
            pid, name.c_str());
    for (int tid = kTidIntervals; tid <= kTidReclaim; ++tid) {
        w.event("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                pid, tid, chromeTidName(tid));
    }
}

/** Emit one record on its record family's track. */
void writeRecord(LineWriter &w, int pid, const TraceRecord &r)
{
    const auto kind = static_cast<TraceKind>(r.kind);
    const int tid = chromeTid(kind);
    const long long ts = toUs(r.time);
    switch (kind) {
    case TraceKind::WarmStart:
        // Duration event: arg carries the execution time in ms.
        w.event("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,"
                "\"dur\":%lld,\"name\":\"warm fn%u\",\"cat\":\"invoke\","
                "\"args\":{\"fn\":%u,\"tier\":\"%s\"}}",
                pid, tid, ts, toUs(static_cast<TimeMs>(r.arg)),
                static_cast<unsigned>(r.fn), static_cast<unsigned>(r.fn),
                tierName(static_cast<Tier>(r.tier)));
        break;
    case TraceKind::ColdStart:
        // Duration event: arg carries the cold-start penalty in ms.
        w.event("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,"
                "\"dur\":%lld,\"name\":\"cold fn%u\",\"cat\":\"invoke\","
                "\"args\":{\"fn\":%u,\"tier\":\"%s\",\"cause\":\"%s\"}}",
                pid, tid, ts, toUs(static_cast<TimeMs>(r.arg)),
                static_cast<unsigned>(r.fn), static_cast<unsigned>(r.fn),
                tierName(static_cast<Tier>(r.tier)),
                coldCauseName(static_cast<ColdCause>(r.cause)));
        break;
    default:
        w.event("{\"ph\":\"i\",\"pid\":%d,\"tid\":%d,\"ts\":%lld,"
                "\"s\":\"t\",\"name\":\"%s\",\"cat\":\"lifecycle\","
                "\"args\":{\"fn\":%u,\"tier\":\"%s\",\"arg\":%" PRIu64
                "}}",
                pid, tid, ts, traceKindName(kind),
                static_cast<unsigned>(r.fn),
                tierName(static_cast<Tier>(r.tier)), r.arg);
        break;
    }
}

void writeCounterSamples(LineWriter &w, int pid, const ProbeTable &probes)
{
    // Counter events render as stacked area tracks in the viewer.
    for (std::size_t i = 0; i < probes.intervalSampleCount(); ++i) {
        const IntervalSample &s = probes.intervalSample(i);
        const long long ts = toUs(s.time);
        w.event("{\"ph\":\"C\",\"pid\":%d,\"ts\":%lld,"
                "\"name\":\"warm pool\",\"args\":{\"high\":%" PRId64
                ",\"low\":%" PRId64 "}}",
                pid, ts, s.idle_warm[0], s.idle_warm[1]);
        w.event("{\"ph\":\"C\",\"pid\":%d,\"ts\":%lld,"
                "\"name\":\"memory mb\",\"args\":{\"high\":%" PRId64
                ",\"low\":%" PRId64 "}}",
                pid, ts, s.used_mb[0], s.used_mb[1]);
        w.event("{\"ph\":\"C\",\"pid\":%d,\"ts\":%lld,"
                "\"name\":\"wait queue\",\"args\":{\"depth\":%" PRId64
                "}}",
                pid, ts, s.wait_queue);
    }
}

} // namespace

void writeChromeTrace(std::ostream &out, const std::vector<TraceRun> &runs)
{
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    LineWriter w(out);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const TraceRun &run = runs[i];
        const int pid = static_cast<int>(i) + 1;
        writeRunMetadata(w, pid, run.name);
        if (run.trace != nullptr) {
            for (std::size_t j = 0; j < run.trace->size(); ++j) {
                writeRecord(w, pid, run.trace->at(j));
            }
        }
        if (run.probes != nullptr) {
            writeCounterSamples(w, pid, *run.probes);
        }
    }
    out << "\n]}\n";
}

} // namespace iceb::obs
