/**
 * @file
 * Probes shared by the micro-benches (bench_fip, bench_sim,
 * bench_scale).
 *
 *  - An allocation counter. bench_probe.cc replaces the global
 *    operator new of every binary it is linked into, so the counter
 *    sees every allocation in the process. Take deltas around
 *    measurement regions that nothing else runs beside.
 *  - The hex form of the metrics digest (harness::digestMetrics)
 *    behind bench_sim's and bench_scale's agreement gates and their
 *    fixed `metrics_digest` rows.
 */

#ifndef ICEB_BENCH_BENCH_PROBE_HH
#define ICEB_BENCH_BENCH_PROBE_HH

#include <cstdint>
#include <string>

namespace bench
{

/** operator new calls made by this process so far. */
long long allocationCount();

/** A digest as the "0x%016llx" text the baseline files record. */
std::string digestHex(std::uint64_t digest);

} // namespace bench

#endif // ICEB_BENCH_BENCH_PROBE_HH
