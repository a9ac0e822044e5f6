/**
 * @file
 * Reproduces Fig. 12: the budget-constant composition sweep, from 20
 * high-end/0 low-end servers to 0/35, eleven configurations in all.
 * IceBreaker should lead everywhere; on the homogeneous high-end
 * endpoint the paper notes it trades keep-alive cost for service
 * time because that endpoint has the least memory.
 *
 * Runs the whole (scheme x composition x replicate) grid through the
 * parallel ExperimentRunner; see --help for --threads / --seeds /
 * --repeats.
 */

#include <iostream>

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace iceb;

    const bench::BenchOptions options =
        bench::parseBenchOptions(argc, argv);
    const harness::Workload workload = options.smoke
        ? bench::smokeWorkload()
        : bench::sweepWorkload();
    std::cout << "workload: " << workload.trace.numFunctions()
              << " functions, " << workload.trace.totalInvocations()
              << " invocations per configuration\n\n";

    std::vector<harness::SweepPoint> points;
    for (const sim::ClusterConfig &cluster : sim::budgetConstantSweep())
        points.push_back(harness::SweepPoint{cluster.name, cluster});

    bench::runGridComparison(
        "Fig. 12: improvements over OpenWhisk across budget-constant "
        "compositions",
        "config", workload, points, bench::paperSchemes(), options);

    std::cout << "\nShape check: IceBreaker leads in the "
                 "heterogeneous middle of the sweep;\nhomogeneous "
                 "endpoints retain its prediction advantage only.\n";
    return 0;
}
