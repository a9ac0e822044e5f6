#include "obs/histogram.hh"

#include <cinttypes>
#include <cstdio>
#include <ostream>

namespace iceb::obs
{

std::uint64_t
LatencyHistogram::quantile(double q) const noexcept
{
    if (count_ == 0)
        return 0;
    // Rank of the q-quantile, 1-based; q <= 0 degenerates to rank 1.
    std::uint64_t rank =
        static_cast<std::uint64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_))
        ++rank; // ceiling
    if (rank < 1)
        rank = 1;
    if (rank > count_)
        rank = count_;
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < kNumBuckets; ++i) {
        cum += counts_[i];
        if (cum >= rank) {
            const std::uint64_t hi = bucketUpperBound(i);
            return hi < max_ ? hi : max_;
        }
    }
    return max_;
}

bool
HistogramSet::empty() const noexcept
{
    for (const NamedHistogram &named : namedHistograms(*this)) {
        if (named.hist->count() > 0)
            return false;
    }
    return true;
}

std::vector<NamedHistogram>
namedHistograms(const HistogramSet &set)
{
    std::vector<NamedHistogram> out;
    out.reserve(3 * kNumTiers + 2);
    for (std::size_t t = 0; t < kNumTiers; ++t) {
        const char *tier = tierName(static_cast<Tier>(t));
        out.push_back({"cold_start_ms", tier, &set.cold_start_ms[t]});
        out.push_back(
            {"setup_attach_ms", tier, &set.setup_attach_ms[t]});
        out.push_back({"wait_queue_ms", tier, &set.wait_queue_ms[t]});
    }
    out.push_back({"decision_wall_us", "", &set.decision_wall_us});
    out.push_back({"observe_wall_us", "", &set.observe_wall_us});
    return out;
}

void
writeHistogramCsv(std::ostream &out,
                  const std::vector<HistogramRun> &runs)
{
    out << "run,series,tier,bucket_lo,bucket_hi,count\n";
    char buf[192];
    for (const HistogramRun &run : runs) {
        if (run.set == nullptr)
            continue;
        for (const NamedHistogram &named : namedHistograms(*run.set)) {
            const LatencyHistogram &hist = *named.hist;
            if (hist.count() == 0)
                continue;
            for (std::size_t i = 0;
                 i < LatencyHistogram::kNumBuckets; ++i) {
                const std::uint64_t n = hist.bucketCount(i);
                if (n == 0)
                    continue;
                std::snprintf(
                    buf, sizeof(buf),
                    "%s,%s,%s,%" PRIu64 ",%" PRIu64 ",%" PRIu64 "\n",
                    run.run.c_str(), named.series, named.tier,
                    LatencyHistogram::bucketLowerBound(i),
                    LatencyHistogram::bucketUpperBound(i), n);
                out << buf;
            }
        }
    }
}

} // namespace iceb::obs
