/**
 * @file
 * Incremental (out-of-core) workload row sources.
 *
 * A FunctionRowSource hands out one function's full invocation series
 * at a time — the unit the streaming arrival generator consumes — so
 * an Azure-scale CSV (or an equally large synthetic preset) never has
 * to be materialized as a whole trace::Trace. AzureCsvRowStream is
 * the chunked CSV implementation: it reads the stream through a
 * fixed-size buffer, tokenizes each row in place, and reports parse
 * errors with the line and column they occurred at (at 100k+ rows a
 * context-free error is undebuggable).
 */

#ifndef ICEB_TRACE_STREAM_READER_HH
#define ICEB_TRACE_STREAM_READER_HH

#include <istream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/trace.hh"

namespace iceb::trace
{

/**
 * One streamed function row: a borrowed view of the function's full
 * concurrency series plus its resource hints. Views stay valid only
 * until the next FunctionRowSource::next() call.
 */
struct FunctionRow
{
    FunctionId id = kInvalidFunction;
    std::string_view name;
    MemoryMb memory_mb = 0;
    TimeMs avg_exec_ms = 0;
    FunctionClass cls = FunctionClass::Unknown;

    /** Invocation counts, one per interval. */
    const std::uint32_t *counts = nullptr;
    std::size_t num_intervals = 0;
};

/**
 * Pull-based source of function rows. Every row must carry the same
 * number of intervals; consumers may assume row ids are dense and
 * ascending from 0.
 */
class FunctionRowSource
{
  public:
    virtual ~FunctionRowSource() = default;

    /** Width of one interval in milliseconds. */
    virtual TimeMs intervalMs() const = 0;

    /**
     * Produce the next row, or return false at end of input. The
     * row's views are valid until the next call.
     */
    virtual bool next(FunctionRow &row) = 0;
};

/**
 * Chunked reader for the Azure invocation-counts CSV schema. It reads
 * the RFC-4180-style quoting that common/csv.hh's CsvWriter emits and
 * tolerates CRLF line ends, parsing through a fixed 256 KiB buffer
 * with zero steady-state allocations and emitting one FunctionRow per
 * data row.
 *
 * The header row decides the layout. The minute columns are the
 * header fields 1, 2, ..., N at the end of the row; every field
 * before them is metadata. A `HashFunction` or `name` column names
 * the function, `memory_mb` and `avg_exec_ms` carry the resource
 * hints, and any other metadata column (the published trace's
 * `HashOwner`, `HashApp` and `Trigger`) is skipped. A hint whose
 * column is missing or whose field is empty reads as 0, meaning
 * unknown. So both the published invocations files and the layout
 * writeAzureCsv produces load as they are.
 */
class AzureCsvRowStream final : public FunctionRowSource
{
  public:
    /**
     * Reads the header row; fatal() if it is missing or has no
     * minute columns.
     * @param in          Stream to parse; must outlive the reader.
     * @param source_name Name used in error messages (the file path
     *                    for loadAzureCsvFile).
     */
    explicit AzureCsvRowStream(std::istream &in,
                               std::string source_name = "Azure CSV");

    TimeMs intervalMs() const override;
    bool next(FunctionRow &row) override;

  private:
    static constexpr std::size_t kNoColumn = ~std::size_t{0};

    void readHeader();
    bool nextLine();
    void splitFields();
    [[noreturn]] void failAt(std::size_t column,
                             const std::string &message) const;
    std::int64_t fieldToInt(std::size_t column, const char *what) const;
    /** The hint in @p column, or 0 if the column or field is empty. */
    std::int64_t hintAt(std::size_t column, const char *what) const;

    std::istream &in_;
    std::string source_name_;

    std::vector<char> buffer_; //!< fixed-size read chunk
    std::size_t buf_pos_ = 0;
    std::size_t buf_len_ = 0;
    bool eof_ = false;

    std::string line_;                    //!< current physical line
    std::vector<std::string_view> fields_;//!< views into line_
    std::vector<std::uint32_t> counts_;   //!< reused per row

    std::size_t line_no_ = 0;
    std::size_t rows_read_ = 0;

    // The layout, read from the header row.
    std::size_t name_column_ = kNoColumn;
    std::size_t memory_column_ = kNoColumn;
    std::size_t exec_column_ = kNoColumn;
    std::size_t first_minute_ = 0;   //!< column of minute 1
    std::size_t minute_columns_ = 0; //!< N
};

} // namespace iceb::trace

#endif // ICEB_TRACE_STREAM_READER_HH
