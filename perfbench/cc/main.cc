/**
 * @file
 * perfbench: the end-to-end benchmark binary (run through run.py).
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--small] [--spans-out FILE] [--spill-dir DIR]
 *             [--expect-digest SCHEME=0xDIGEST ...]
 *   perfbench --self-test
 *
 * The last line of standard output is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * with the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Diagnostics go to standard error.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.hh"

namespace perfbench
{
void setSpillDirectory(const std::string &dir);
} // namespace perfbench

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(int status)
{
    (status == 0 ? std::cout : std::cerr)
        << "usage: perfbench --workload fig6|azure-stream|serve-azure "
           "--seed N --seconds S --trace 0|1\n"
           "                 [--small] [--spans-out FILE] "
           "[--spill-dir DIR]\n"
           "                 [--expect-digest SCHEME=0xDIGEST ...]\n"
           "       perfbench --self-test\n";
    std::exit(status);
}

std::uint64_t
parseUint(std::string_view flag, const std::string &text)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || end == text.c_str() ||
        *end != '\0') {
        std::cerr << "perfbench: bad value '" << text << "' for " << flag
                  << "\n";
        usage(2);
    }
    return value;
}

/** Self time: duration minus what the span's children cover. */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].end_s - spans[i].start_s;
    // Parents index spans of the same run; runs are stored contiguously
    // and each parent precedes its children.
    std::size_t run_begin = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i > 0 && spans[i].run != spans[i - 1].run)
            run_begin = i;
        if (spans[i].parent >= 0) {
            const std::size_t parent =
                run_begin + static_cast<std::size_t>(spans[i].parent);
            self[parent] -= spans[i].end_s - spans[i].start_s;
        }
    }
    return self;
}

void
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench: cannot write spans to " << path << "\n";
        return;
    }
    const std::vector<double> self = selfTimes(spans);
    out.precision(9);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << s.name
            << "\", \"run\": " << s.run << ", \"interval\": " << s.interval
            << ", \"parent\": " << s.parent << ", \"start_s\": " << s.start_s
            << ", \"end_s\": " << s.end_s << ", \"self_s\": " << self[i]
            << "}";
    }
    out << "\n]}\n";
}

void
printResult(const Outcome &outcome)
{
    bool finite = true;
    std::string metrics;
    for (const Metric &m : outcome.metrics) {
        finite = finite && std::isfinite(m.value);
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = finite && outcome.failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                metrics.c_str());
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig config;
    std::string spans_out;
    bool self_test = false;
    bool have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "perfbench: " << arg << " needs a value\n";
                usage(2);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--workload") {
            config.workload = value();
        } else if (arg == "--seed") {
            config.seed = parseUint(arg, value());
        } else if (arg == "--seconds") {
            config.seconds = static_cast<double>(parseUint(arg, value()));
        } else if (arg == "--trace") {
            const std::uint64_t trace = parseUint(arg, value());
            if (trace > 1)
                usage(2);
            config.traced = trace == 1;
            have_trace = true;
        } else if (arg == "--small") {
            config.small = true;
        } else if (arg == "--spans-out") {
            spans_out = value();
        } else if (arg == "--spill-dir") {
            setSpillDirectory(value());
        } else if (arg == "--expect-digest") {
            const std::string pair = value();
            const std::size_t eq = pair.find('=');
            if (eq == std::string::npos)
                usage(2);
            config.expect_digests[pair.substr(0, eq)] = pair.substr(eq + 1);
        } else if (arg == "--self-test") {
            self_test = true;
        } else {
            std::cerr << "perfbench: unknown option '" << arg << "'\n";
            usage(2);
        }
    }

    if (self_test) {
        const int mismatches = selfTest();
        std::cerr << "self-test: " << mismatches << " mismatches\n";
        return mismatches == 0 ? 0 : 1;
    }

    bool known = false;
    for (const std::string &name : workloadNames())
        known = known || name == config.workload;
    if (!known || !have_trace) {
        std::cerr << "perfbench: need --workload (one of fig6, "
                     "azure-stream, serve-azure) and --trace\n";
        usage(2);
    }

    const Outcome outcome = runWorkload(config);
    if (!spans_out.empty() && config.traced)
        writeSpans(spans_out, outcome.spans);
    printResult(outcome);
    return 0;
}
