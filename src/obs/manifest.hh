/**
 * @file
 * Run manifests: one JSON-lines record per simulation run making a
 * grid self-describing — which scheme ran, against which workload and
 * cluster (by digest), from which seed, under which build, and what
 * it produced (headline metrics + a metrics digest for byte-level
 * regression checks).
 *
 * The obs library knows nothing about sim types; the harness fills a
 * plain RunManifest from its RunSpec/RunResult and this module only
 * formats it. 64-bit digests and seeds are emitted as fixed-width hex
 * strings because JSON numbers are IEEE doubles and would silently
 * lose low bits.
 */

#ifndef ICEB_OBS_MANIFEST_HH
#define ICEB_OBS_MANIFEST_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace iceb::obs
{

/** Incremental FNV-1a 64-bit digest. */
class Digest
{
  public:
    static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ull;

    /** Continue from @p state (by default a fresh digest). */
    explicit Digest(std::uint64_t state = kOffsetBasis) : state_(state) {}

    Digest &addU64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            addByte(static_cast<std::uint8_t>(v >> (i * 8)));
        }
        return *this;
    }

    Digest &addI64(std::int64_t v)
    {
        return addU64(static_cast<std::uint64_t>(v));
    }

    /** Hashes the bit pattern (normalizing -0.0 to +0.0). */
    Digest &addDouble(double v);

    Digest &addString(const std::string &s)
    {
        for (char c : s) {
            addByte(static_cast<std::uint8_t>(c));
        }
        addByte(0); // terminator => ("ab","c") != ("a","bc")
        return *this;
    }

    std::uint64_t value() const { return state_; }

    /** value() as a fixed-width lowercase hex string. */
    std::string hex() const;

  private:
    void addByte(std::uint8_t b)
    {
        state_ ^= b;
        state_ *= 0x100000001b3ull;
    }

    std::uint64_t state_;
};

/** @return @p v as a fixed-width 16-digit lowercase hex string. */
std::string toHex(std::uint64_t v);

/** @return @p s with JSON string escapes applied (no quotes added). */
std::string jsonEscaped(const std::string &s);

/** Compiler / configuration facts baked into the binary. */
struct BuildInfo
{
    std::string compiler;    //!< __VERSION__
    bool optimized = false;  //!< NDEBUG set
};

/** Build info of the current binary. */
BuildInfo currentBuildInfo();

/**
 * Quantile digest of one latency-histogram series, folded into the
 * manifest line ("series" or "series/tier" keyed; see
 * obs/histogram.hh). Only non-empty series appear, so deterministic
 * runs keep byte-identical manifests regardless of wall-timing.
 */
struct HistogramDigest
{
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
};

/** Everything the manifest records about one run. */
struct RunManifest
{
    std::uint32_t run_index = 0;    //!< position in the grid
    std::string scheme;             //!< policy scheme key
    std::string label;              //!< sweep-point label ("" if none)
    std::uint32_t replicate = 0;    //!< seed replicate index
    std::uint64_t base_seed = 0;
    std::uint64_t derived_seed = 0; //!< per-run RNG seed
    std::string cluster;            //!< cluster config name
    std::uint64_t config_digest = 0;
    std::uint64_t workload_functions = 0;
    std::uint64_t workload_intervals = 0;
    std::uint64_t workload_invocations = 0;
    /** Headline metrics, in a fixed order chosen by the producer. */
    std::vector<std::pair<std::string, double>> metrics;
    std::uint64_t metrics_digest = 0;
    std::uint64_t trace_recorded = 0; //!< 0 when tracing off
    std::uint64_t trace_dropped = 0;
    std::uint64_t probe_samples = 0;  //!< interval + forecast rows
    /** Histogram quantile digests (empty = pillar off / no values);
     * when empty the manifest line's bytes match the pre-histogram
     * format exactly. */
    std::vector<HistogramDigest> histograms;
};

/** Append @p m to @p out as a single JSON line. */
void writeManifestLine(std::ostream &out, const RunManifest &m);

} // namespace iceb::obs

#endif // ICEB_OBS_MANIFEST_HH
