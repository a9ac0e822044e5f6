#include "trace/azure_loader.hh"

#include <fstream>
#include <optional>

#include "common/csv.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "trace/stream_reader.hh"

namespace iceb::trace
{

namespace
{

/** Materialize every row of an Azure CSV row stream into a Trace. */
Trace
materializeRows(AzureCsvRowStream &rows, const std::string &source_name)
{
    std::optional<Trace> trace;
    FunctionRow row;
    while (rows.next(row)) {
        if (!trace)
            trace.emplace(row.num_intervals, kMsPerMinute);
        FunctionSeries series;
        series.name.assign(row.name);
        series.memory_mb = row.memory_mb;
        series.avg_exec_ms = row.avg_exec_ms;
        series.concurrency.assign(row.counts,
                                  row.counts + row.num_intervals);
        trace->addFunction(std::move(series));
    }
    if (!trace)
        fatal(source_name, " contained no data rows");
    return std::move(*trace);
}

} // namespace

Trace
loadAzureCsv(std::istream &in)
{
    AzureCsvRowStream rows(in);
    return materializeRows(rows, "Azure CSV");
}

Trace
loadAzureCsvFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open Azure trace file '", path, "'");
    AzureCsvRowStream rows(in, path);
    return materializeRows(rows, path);
}

void
writeAzureCsv(std::ostream &out, const Trace &trace)
{
    CsvWriter writer(out);
    CsvRow header = {"name", "memory_mb", "avg_exec_ms"};
    for (std::size_t i = 1; i <= trace.numIntervals(); ++i)
        header.push_back(std::to_string(i));
    writer.writeRow(header);

    for (const auto &fn : trace.functions()) {
        CsvRow row = {fn.name, std::to_string(fn.memory_mb),
                      std::to_string(fn.avg_exec_ms)};
        for (std::uint32_t count : fn.concurrency)
            row.push_back(std::to_string(count));
        writer.writeRow(row);
    }
}

} // namespace iceb::trace
