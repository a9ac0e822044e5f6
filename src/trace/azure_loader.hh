/**
 * @file
 * Loader for the Microsoft Azure Functions trace CSV schema.
 *
 * The paper drives its evaluation with the public Azure Functions
 * trace (Shahrad et al., ATC'20). That dataset is not bundled here,
 * but this loader reads its published invocations files as they are
 * (HashOwner, HashApp, HashFunction and Trigger, then the minute
 * columns 1 ... 1440 of one day), so the real trace can be substituted
 * for the synthetic generator without code changes. Those files carry
 * no memory or execution-time hints, so their functions load with
 * both hints unknown (0).
 */

#ifndef ICEB_TRACE_AZURE_LOADER_HH
#define ICEB_TRACE_AZURE_LOADER_HH

#include <istream>
#include <string>

#include "trace/trace.hh"

namespace iceb::trace
{

/**
 * Parse an Azure-style invocation-counts CSV from a stream. The header
 * row decides the layout (see AzureCsvRowStream): the minute columns
 * are its trailing fields 1, 2, ..., N, and every data row carries
 * one count per minute column.
 */
Trace loadAzureCsv(std::istream &in);

/** loadAzureCsv on the file at @p path; fatal() if it cannot be opened. */
Trace loadAzureCsvFile(const std::string &path);

/**
 * Serialise a trace back to the same CSV schema (metadata columns
 * name, memory_mb and avg_exec_ms, then minute columns 1 ... N).
 * Round-trips with loadAzureCsv.
 */
void writeAzureCsv(std::ostream &out, const Trace &trace);

} // namespace iceb::trace

#endif // ICEB_TRACE_AZURE_LOADER_HH
