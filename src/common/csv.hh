/**
 * @file
 * Minimal CSV writing, used to serialise traces in the Azure
 * Functions schema (trace::writeAzureCsv).
 *
 * Fields are quoted RFC-4180 style (embedded quotes doubled) only when
 * they hold the delimiter, a quote or a newline. The matching reader is
 * trace::AzureCsvRowStream.
 */

#ifndef ICEB_COMMON_CSV_HH
#define ICEB_COMMON_CSV_HH

#include <ostream>
#include <string>
#include <vector>

namespace iceb
{

/** One CSV record: its fields, unquoted. */
using CsvRow = std::vector<std::string>;

/**
 * CSV writer that quotes fields only when necessary.
 */
class CsvWriter
{
  public:
    /** Wrap a stream; the stream must outlive the writer. */
    explicit CsvWriter(std::ostream &out, char delimiter = ',');

    /** Write one record. */
    void writeRow(const CsvRow &row);

  private:
    std::string escape(const std::string &field) const;

    std::ostream &out_;
    char delimiter_;
};

} // namespace iceb

#endif // ICEB_COMMON_CSV_HH
