/**
 * @file
 * Ablation study of IceBreaker's design choices (the DESIGN.md Sec. 5
 * list): dynamic cut-offs, the ping-pong safeguard, the large-memory
 * safeguard, the self-correcting concurrency margin, and the
 * prediction-driven keep-alive extension. Each variant registers a
 * configured IceBreaker factory under its own scheme name and the
 * whole (variant x replicate) grid runs through the parallel
 * ExperimentRunner; the full configuration should dominate or tie
 * each ablated one on the combined objective.
 */

#include <iostream>
#include <memory>

#include "bench/bench_util.hh"
#include "core/icebreaker.hh"
#include "harness/registry.hh"

int
main(int argc, char **argv)
{
    using namespace iceb;

    const bench::BenchOptions options =
        bench::parseBenchOptions(argc, argv);
    const harness::Workload workload = options.smoke
        ? bench::smokeWorkload()
        : bench::standardWorkload(300, 600);
    const sim::ClusterConfig cluster =
        sim::defaultHeterogeneousCluster();

    // Each variant is a registered scheme whose factory captures its
    // configuration by value, so replicates are identically configured
    // no matter which worker thread builds them.
    std::vector<std::pair<const char *, core::IceBreakerConfig>> variants;
    variants.push_back({"static cut-offs", {}});
    variants.back().second.pdm.enable_dynamic_cutoffs = false;
    variants.push_back({"no ping-pong guard", {}});
    variants.back().second.pdm.enable_ping_pong_guard = false;
    variants.push_back({"no large-memory guard", {}});
    variants.back().second.pdm.enable_large_memory_guard = false;
    variants.push_back({"unbiased instance counts", {}});
    variants.back().second.count_deadband = 0.5; // plain rounding
    variants.push_back({"no predicted-gap keep-alive", {}});
    variants.back().second.keep_alive_horizon = 0; // boundary-only
    variants.push_back({"3 harmonics instead of 10", {}});
    variants.back().second.fip.harmonics = 3;
    variants.push_back({"1-hour FIP window", {}});
    variants.back().second.fip.window = 60;

    std::vector<bench::ComparisonScheme> schemes = {
        {"openwhisk", "OpenWhisk"}, // baseline for the improvements
        {"icebreaker", "full IceBreaker"},
    };
    std::vector<std::unique_ptr<harness::ScopedPolicyRegistration>>
        registrations;
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const std::string key = "iceb-ablation-" + std::to_string(i);
        const core::IceBreakerConfig config = variants[i].second;
        registrations.push_back(
            std::make_unique<harness::ScopedPolicyRegistration>(
                key, [config] {
                    return std::make_unique<core::IceBreakerPolicy>(
                        config);
                }));
        schemes.push_back(
            bench::ComparisonScheme{key, variants[i].first});
    }

    const std::vector<harness::SweepPoint> points = {{"", cluster}};
    bench::runGridComparison(
        "IceBreaker ablations (improvements over the OpenWhisk "
        "baseline)",
        "", workload, points, schemes, options);

    std::cout << "\nReading guide: each row disables one mechanism; "
                 "regressions against the\nfirst row show what that "
                 "mechanism buys.\n";
    return 0;
}
