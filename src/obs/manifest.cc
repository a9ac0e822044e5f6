#include "obs/manifest.hh"

#include <cstdio>
#include <cstring>
#include <ostream>

namespace iceb::obs
{

Digest &Digest::addDouble(double v)
{
    if (v == 0.0) {
        v = 0.0; // collapse -0.0
    }
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    return addU64(bits);
}

std::string toHex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string Digest::hex() const { return toHex(state_); }

std::string jsonEscaped(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
            break;
        }
    }
    return out;
}

BuildInfo currentBuildInfo()
{
    BuildInfo info;
#ifdef __VERSION__
    info.compiler = __VERSION__;
#else
    info.compiler = "unknown";
#endif
#ifdef NDEBUG
    info.optimized = true;
#endif
    return info;
}

namespace
{

void appendMetric(std::string &line, const std::string &name, double v)
{
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.17g",
                  jsonEscaped(name).c_str(), v);
    line += buf;
}

} // namespace

void writeManifestLine(std::ostream &out, const RunManifest &m)
{
    const BuildInfo build = currentBuildInfo();
    std::string line;
    line.reserve(768);
    char buf[256];

    std::snprintf(buf, sizeof(buf),
                  "{\"run_index\":%u,\"scheme\":\"%s\",", m.run_index,
                  jsonEscaped(m.scheme).c_str());
    line += buf;
    std::snprintf(buf, sizeof(buf), "\"label\":\"%s\",\"replicate\":%u,",
                  jsonEscaped(m.label).c_str(), m.replicate);
    line += buf;
    line += "\"base_seed\":\"" + toHex(m.base_seed) + "\",";
    line += "\"derived_seed\":\"" + toHex(m.derived_seed) + "\",";
    line += "\"cluster\":\"" + jsonEscaped(m.cluster) + "\",";
    line += "\"config_digest\":\"" + toHex(m.config_digest) + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"workload\":{\"functions\":%llu,\"intervals\":%llu,"
                  "\"invocations\":%llu},",
                  static_cast<unsigned long long>(m.workload_functions),
                  static_cast<unsigned long long>(m.workload_intervals),
                  static_cast<unsigned long long>(
                      m.workload_invocations));
    line += buf;
    std::snprintf(buf, sizeof(buf),
                  "\"build\":{\"compiler\":\"%s\",\"optimized\":%s},",
                  jsonEscaped(build.compiler).c_str(),
                  build.optimized ? "true" : "false");
    line += buf;
    line += "\"metrics\":{";
    for (std::size_t i = 0; i < m.metrics.size(); ++i) {
        if (i != 0) {
            line += ',';
        }
        appendMetric(line, m.metrics[i].first, m.metrics[i].second);
    }
    line += "},";
    line += "\"metrics_digest\":\"" + toHex(m.metrics_digest) + "\",";
    std::snprintf(buf, sizeof(buf),
                  "\"trace\":{\"recorded\":%llu,\"dropped\":%llu},"
                  "\"probe_samples\":%llu",
                  static_cast<unsigned long long>(m.trace_recorded),
                  static_cast<unsigned long long>(m.trace_dropped),
                  static_cast<unsigned long long>(m.probe_samples));
    line += buf;
    if (!m.histograms.empty()) {
        line += ",\"histograms\":{";
        for (std::size_t i = 0; i < m.histograms.size(); ++i) {
            const HistogramDigest &h = m.histograms[i];
            if (i != 0)
                line += ',';
            std::snprintf(
                buf, sizeof(buf),
                "\"%s\":{\"count\":%llu,\"p50\":%llu,\"p95\":%llu,"
                "\"p99\":%llu,\"max\":%llu}",
                jsonEscaped(h.name).c_str(),
                static_cast<unsigned long long>(h.count),
                static_cast<unsigned long long>(h.p50),
                static_cast<unsigned long long>(h.p95),
                static_cast<unsigned long long>(h.p99),
                static_cast<unsigned long long>(h.max));
            line += buf;
        }
        line += '}';
    }
    line += '}';

    out << line << '\n';
}

} // namespace iceb::obs
