/**
 * @file
 * Trace explorer: characterise a serverless invocation trace the way
 * Sec. 2/3 of the paper does -- periodicity census, harmonic counts,
 * inter-arrival statistics and per-class breakdowns. Run it on the
 * bundled synthetic generator, or point it at a published Azure
 * invocations file (or any CSV whose header ends in the minute
 * columns 1 ... N):
 *
 *   ./trace_explorer [invocations_per_function_md.anon.d01.csv]
 */

#include <algorithm>
#include <iostream>
#include <map>

#include "common/table.hh"
#include "math/stats.hh"
#include "trace/azure_loader.hh"
#include "trace/synthetic.hh"
#include "trace/trace_stats.hh"

int
main(int argc, char **argv)
{
    using namespace iceb;

    trace::Trace tr = [&] {
        if (argc > 1)
            return trace::loadAzureCsvFile(argv[1]);
        trace::SyntheticConfig config;
        config.num_functions = 300;
        config.num_intervals = 1440;
        return trace::SyntheticTraceGenerator(config).generate();
    }();

    std::cout << "trace: " << tr.numFunctions() << " functions, "
              << tr.totalInvocations() << " invocations over "
              << tr.numIntervals() << " intervals\n\n";

    const trace::TraceCharacter character =
        trace::characterizeTrace(tr);

    TextTable census("Trace characterisation (cf. paper Figs. 4-5)");
    census.setHeader({"metric", "value"});
    census.addRow({"periodic functions",
                   TextTable::pct(character.fraction_periodic)});
    census.addRow({"multi-harmonic functions (>= 2)",
                   TextTable::pct(character.fraction_multi_harmonic)});
    census.addRow({"functions with < 10 harmonics",
                   TextTable::pct(character.fraction_under_ten)});
    census.addRow({"median harmonic count",
                   TextTable::num(
                       character.harmonic_cdf.quantile(0.5), 0)});
    census.print(std::cout);

    // Per-class inventory (synthetic traces carry their class).
    std::map<trace::FunctionClass, std::pair<std::size_t, double>>
        classes;
    for (const auto &fn : tr.functions()) {
        auto &entry = classes[fn.cls];
        entry.first += 1;
        entry.second += static_cast<double>(fn.totalInvocations());
    }
    TextTable breakdown("Per-class breakdown");
    breakdown.setHeader({"class", "functions", "invocations",
                         "mean gap (min)"});
    for (const auto &[cls, entry] : classes) {
        double gap_sum = 0.0;
        std::size_t gap_count = 0;
        for (const auto &fn : tr.functions()) {
            if (fn.cls != cls)
                continue;
            const std::vector<double> gaps =
                trace::interArrivalIntervals(fn);
            if (!gaps.empty()) {
                gap_sum += math::mean(gaps);
                ++gap_count;
            }
        }
        breakdown.addRow({
            trace::functionClassName(cls),
            std::to_string(entry.first),
            TextTable::num(entry.second, 0),
            gap_count ? TextTable::num(gap_sum / gap_count, 1) : "-",
        });
    }
    std::cout << "\n";
    breakdown.print(std::cout);

    // The ten busiest functions.
    std::vector<std::pair<std::uint64_t, FunctionId>> busiest;
    for (const auto &fn : tr.functions())
        busiest.emplace_back(fn.totalInvocations(), fn.id);
    std::sort(busiest.rbegin(), busiest.rend());
    TextTable top("Busiest functions");
    top.setHeader({"function", "invocations", "dominant period (min)",
                   "harmonics"});
    for (std::size_t i = 0; i < 10 && i < busiest.size(); ++i) {
        const auto &ch = character.functions[busiest[i].second];
        top.addRow({
            tr.function(busiest[i].second).name,
            std::to_string(busiest[i].first),
            ch.dominant_period > 0.0
                ? TextTable::num(ch.dominant_period, 1)
                : "-",
            std::to_string(ch.harmonics),
        });
    }
    std::cout << "\n";
    top.print(std::cout);
    return 0;
}
