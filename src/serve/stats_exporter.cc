#include "serve/stats_exporter.hh"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "obs/histogram.hh"

namespace iceb::serve
{

namespace
{

/** snprintf-append into a std::string (locale-immune formatting). */
template <typename... Args>
void appendf(std::string &out, const char *fmt, Args... args)
{
    char buf[256];
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    if (n > 0 && static_cast<std::size_t>(n) < sizeof(buf))
        out.append(buf, static_cast<std::size_t>(n));
}

/** "series" or "series/tier": the flat histogram key both formats
 * share (no '.' — the CI schema checker splits key paths on dots). */
std::string histKey(const obs::NamedHistogram &named)
{
    std::string key = named.series;
    if (named.tier[0] != '\0') {
        key += '/';
        key += named.tier;
    }
    return key;
}

} // namespace

std::string
renderPrometheus(const StatsSnapshot &snap)
{
    std::string out;
    out.reserve(2048);
    const char *run = snap.run_label.c_str();

    out += "# TYPE icebreaker_invocations_total counter\n";
    appendf(out, "icebreaker_invocations_total{run=\"%s\"} %" PRIu64 "\n",
            run, snap.counters.invocations);
    out += "# TYPE icebreaker_cold_starts_total counter\n";
    appendf(out, "icebreaker_cold_starts_total{run=\"%s\"} %" PRIu64 "\n",
            run, snap.counters.cold_starts);
    out += "# TYPE icebreaker_warm_starts_total counter\n";
    appendf(out, "icebreaker_warm_starts_total{run=\"%s\"} %" PRIu64 "\n",
            run, snap.counters.warm_starts);
    out += "# TYPE icebreaker_wait_queue_depth gauge\n";
    appendf(out, "icebreaker_wait_queue_depth{run=\"%s\"} %" PRId64 "\n",
            run, snap.counters.wait_queue);
    out += "# TYPE icebreaker_keep_alive_cost gauge\n";
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        appendf(out,
                "icebreaker_keep_alive_cost{run=\"%s\",tier=\"%s\"} "
                "%.6f\n",
                run, tierName(static_cast<Tier>(t)),
                snap.counters.keep_alive_cost[t]);
    }
    out += "# TYPE icebreaker_intervals_started counter\n";
    appendf(out,
            "icebreaker_intervals_started{run=\"%s\"} %" PRIu64 "\n",
            run, snap.intervals_started);
    out += "# TYPE icebreaker_sim_time_ms gauge\n";
    appendf(out, "icebreaker_sim_time_ms{run=\"%s\"} %lld\n", run,
            static_cast<long long>(snap.sim_time_ms));
    out += "# TYPE icebreaker_decisions_total counter\n";
    appendf(out, "icebreaker_decisions_total{run=\"%s\"} %" PRIu64 "\n",
            run, snap.decisions);
    out += "# TYPE icebreaker_rejected_arrivals_total counter\n";
    appendf(out,
            "icebreaker_rejected_arrivals_total{run=\"%s\"} %" PRIu64
            "\n",
            run, snap.rejected_arrivals);

    if (snap.histograms != nullptr) {
        out += "# TYPE icebreaker_latency summary\n";
        for (const obs::NamedHistogram &named :
             obs::namedHistograms(*snap.histograms)) {
            const obs::LatencyHistogram &h = *named.hist;
            const char *tier =
                named.tier[0] != '\0' ? named.tier : "all";
            appendf(out,
                    "icebreaker_latency{run=\"%s\",series=\"%s\","
                    "tier=\"%s\",quantile=\"0.5\"} %" PRIu64 "\n",
                    run, named.series, tier, h.quantile(0.5));
            appendf(out,
                    "icebreaker_latency{run=\"%s\",series=\"%s\","
                    "tier=\"%s\",quantile=\"0.95\"} %" PRIu64 "\n",
                    run, named.series, tier, h.quantile(0.95));
            appendf(out,
                    "icebreaker_latency{run=\"%s\",series=\"%s\","
                    "tier=\"%s\",quantile=\"0.99\"} %" PRIu64 "\n",
                    run, named.series, tier, h.quantile(0.99));
            appendf(out,
                    "icebreaker_latency_count{run=\"%s\",series=\"%s\","
                    "tier=\"%s\"} %" PRIu64 "\n",
                    run, named.series, tier, h.count());
            appendf(out,
                    "icebreaker_latency_max{run=\"%s\",series=\"%s\","
                    "tier=\"%s\"} %" PRIu64 "\n",
                    run, named.series, tier, h.max());
        }
    }
    return out;
}

std::string
renderStatsJson(const StatsSnapshot &snap)
{
    std::string out;
    out.reserve(2048);
    out += '{';
    appendf(out, "\"run\":\"%s\",", snap.run_label.c_str());
    appendf(out, "\"intervals\":%" PRIu64 ",", snap.intervals_started);
    appendf(out, "\"sim_time_ms\":%lld,",
            static_cast<long long>(snap.sim_time_ms));
    appendf(out, "\"decisions\":%" PRIu64 ",", snap.decisions);
    appendf(out, "\"rejected_arrivals\":%" PRIu64 ",",
            snap.rejected_arrivals);
    appendf(out, "\"invocations\":%" PRIu64 ",",
            snap.counters.invocations);
    appendf(out, "\"cold_starts\":%" PRIu64 ",",
            snap.counters.cold_starts);
    appendf(out, "\"warm_starts\":%" PRIu64 ",",
            snap.counters.warm_starts);
    appendf(out, "\"wait_queue\":%" PRId64 ",",
            snap.counters.wait_queue);
    out += "\"keep_alive_cost\":{";
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        appendf(out, "%s\"%s\":%.6f", t == 0 ? "" : ",",
                tierName(static_cast<Tier>(t)),
                snap.counters.keep_alive_cost[t]);
    }
    out += "},\"histograms\":{";
    if (snap.histograms != nullptr) {
        bool first = true;
        // Every series is emitted — empty ones as zeros — so the JSON
        // key set is a workload-independent schema.
        for (const obs::NamedHistogram &named :
             obs::namedHistograms(*snap.histograms)) {
            const obs::LatencyHistogram &h = *named.hist;
            appendf(out,
                    "%s\"%s\":{\"count\":%" PRIu64 ",\"p50\":%" PRIu64
                    ",\"p95\":%" PRIu64 ",\"p99\":%" PRIu64
                    ",\"max\":%" PRIu64 "}",
                    first ? "" : ",", histKey(named).c_str(), h.count(),
                    h.quantile(0.5), h.quantile(0.95), h.quantile(0.99),
                    h.max());
            first = false;
        }
    }
    out += "}}\n";
    return out;
}

StatsExporter::StatsExporter(StatsExporterOptions options)
    : options_(std::move(options))
{
    if (options_.http_port < 0)
        return;

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) {
        warn("stats exporter: socket() failed; HTTP endpoint disabled");
        return;
    }
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port =
        htons(static_cast<std::uint16_t>(options_.http_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 8) != 0) {
        warn("stats exporter: bind/listen on port ",
             options_.http_port, " failed; HTTP endpoint disabled");
        ::close(listen_fd_);
        listen_fd_ = -1;
        return;
    }

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr *>(&bound),
                      &len) == 0) {
        port_ = static_cast<int>(ntohs(bound.sin_port));
    }
    server_ = std::thread([this] { serveLoop(); });
}

StatsExporter::~StatsExporter()
{
    if (listen_fd_ < 0)
        return;
    // Unblock the accept() and let the thread exit before closing the
    // socket: serveLoop reads listen_fd_ until it returns.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (server_.joinable())
        server_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
}

void
StatsExporter::serveLoop()
{
    while (true) {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0)
            return; // listener shut down (or fatal accept error)

        // One request line is all we need: everything except the path
        // is ignored (no keep-alive, no headers of consequence).
        char req[1024] = {};
        const ssize_t got = ::recv(client, req, sizeof(req) - 1, 0);

        // "GET <path> HTTP/1.x" -- serve /metrics (and "/" as a
        // convenience alias), 404 anything else so scrape
        // misconfigurations fail loudly.
        std::string path;
        if (got > 0) {
            const char *sp = std::strchr(req, ' ');
            if (sp != nullptr) {
                const char *end = std::strchr(sp + 1, ' ');
                if (end != nullptr)
                    path.assign(sp + 1, end);
            }
        }
        const bool known = path == "/metrics" || path == "/";

        std::string body;
        if (known) {
            std::lock_guard<std::mutex> lock(mutex_);
            body = prometheus_;
        } else {
            body = "not found: serve /metrics\n";
        }
        std::string resp;
        resp.reserve(body.size() + 128);
        appendf(resp,
                "HTTP/1.1 %s\r\n"
                "Content-Type: text/plain; version=0.0.4\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                known ? "200 OK" : "404 Not Found",
                body.size());
        resp += body;
        const char *p = resp.data();
        std::size_t left = resp.size();
        while (left > 0) {
            const ssize_t n = ::send(client, p, left, MSG_NOSIGNAL);
            if (n <= 0)
                break;
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        ::close(client);
    }
}

void
StatsExporter::update(const StatsSnapshot &snap)
{
    std::string prom = renderPrometheus(snap);
    std::string json = renderStatsJson(snap);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        prometheus_ = std::move(prom);
        json_ = std::move(json);
    }
    writeJsonFile();
}

void
StatsExporter::writeJsonFile()
{
    if (options_.json_path.empty())
        return;
    std::ofstream out(options_.json_path,
                      std::ios::trunc | std::ios::binary);
    if (!out) {
        warn("stats exporter: cannot write ", options_.json_path);
        options_.json_path.clear(); // warn once, not per interval
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    out << json_;
}

std::string
StatsExporter::prometheusText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return prometheus_;
}

std::string
StatsExporter::jsonText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return json_;
}

} // namespace iceb::serve
