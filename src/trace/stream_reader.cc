#include "trace/stream_reader.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <cstring>

#include "common/logging.hh"
#include "common/units.hh"

namespace iceb::trace
{

namespace
{

/** Size of the fixed read buffer. */
constexpr std::size_t kBufferBytes = 256 * 1024;

} // namespace

AzureCsvRowStream::AzureCsvRowStream(std::istream &in,
                                     std::string source_name)
    : in_(in), source_name_(std::move(source_name)), buffer_(kBufferBytes)
{
    readHeader();
}

void
AzureCsvRowStream::readHeader()
{
    if (!nextLine())
        fatal(source_name_, " is empty");
    splitFields();
    // The minute columns are the trailing fields 1, 2, ..., N; every
    // field before them is metadata.
    const auto first = std::find(fields_.begin(), fields_.end(), "1");
    if (first == fields_.end())
        failAt(fields_.size(), "header has no minute columns 1, 2, ...");
    first_minute_ = static_cast<std::size_t>(first - fields_.begin());
    minute_columns_ = fields_.size() - first_minute_;
    for (std::size_t i = 1; i < minute_columns_; ++i) {
        const std::string expected = std::to_string(i + 1);
        const std::string_view field = fields_[first_minute_ + i];
        if (field != expected) {
            failAt(first_minute_ + i,
                   "minute column '" + std::string(field) +
                       "' out of sequence, expected '" + expected + "'");
        }
    }
    for (std::size_t column = 0; column < first_minute_; ++column) {
        const std::string_view field = fields_[column];
        if (field == "HashFunction" || field == "name")
            name_column_ = column;
        else if (field == "memory_mb")
            memory_column_ = column;
        else if (field == "avg_exec_ms")
            exec_column_ = column;
    }
}

TimeMs
AzureCsvRowStream::intervalMs() const
{
    return kMsPerMinute;
}

bool
AzureCsvRowStream::nextLine()
{
    line_.clear();
    while (true) {
        if (buf_pos_ == buf_len_) {
            if (eof_)
                break;
            in_.read(buffer_.data(),
                     static_cast<std::streamsize>(buffer_.size()));
            buf_len_ = static_cast<std::size_t>(in_.gcount());
            buf_pos_ = 0;
            if (buf_len_ == 0) {
                eof_ = true;
                break;
            }
        }
        const char *base = buffer_.data() + buf_pos_;
        const auto *nl = static_cast<const char *>(
            std::memchr(base, '\n', buf_len_ - buf_pos_));
        if (nl == nullptr) {
            line_.append(base, buf_len_ - buf_pos_);
            buf_pos_ = buf_len_;
            continue;
        }
        line_.append(base, static_cast<std::size_t>(nl - base));
        buf_pos_ += static_cast<std::size_t>(nl - base) + 1;
        ++line_no_;
        if (!line_.empty() && line_.back() == '\r')
            line_.pop_back();
        return true;
    }
    // Final line without a trailing newline.
    if (line_.empty())
        return false;
    ++line_no_;
    if (!line_.empty() && line_.back() == '\r')
        line_.pop_back();
    return true;
}

void
AzureCsvRowStream::splitFields()
{
    // RFC-4180-style fields: a quoted field may hold commas, and a
    // doubled quote inside it is one literal quote. Fields are
    // compacted in place: unescaping only ever shrinks a field, so
    // kept characters are written back into line_ at the write cursor
    // and each field becomes a view of the compacted range.
    fields_.clear();
    char *data = line_.data();
    std::size_t w = 0;           // write cursor
    std::size_t field_start = 0; // first kept char of current field
    bool in_quotes = false;
    for (std::size_t i = 0; i < line_.size(); ++i) {
        const char c = data[i];
        if (in_quotes) {
            if (c == '"') {
                if (i + 1 < line_.size() && data[i + 1] == '"') {
                    data[w++] = '"';
                    ++i;
                } else {
                    in_quotes = false;
                }
            } else {
                data[w++] = c;
            }
        } else if (c == '"') {
            in_quotes = true;
        } else if (c == ',') {
            fields_.emplace_back(data + field_start, w - field_start);
            field_start = w;
        } else {
            data[w++] = c;
        }
    }
    fields_.emplace_back(data + field_start, w - field_start);
}

void
AzureCsvRowStream::failAt(std::size_t column,
                          const std::string &message) const
{
    fatal(source_name_, " line ", line_no_, ", column ", column + 1,
          ": ", message);
}

std::int64_t
AzureCsvRowStream::fieldToInt(std::size_t column, const char *what) const
{
    const std::string_view field = fields_[column];
    std::int64_t value = 0;
    const auto [ptr, ec] = std::from_chars(
        field.data(), field.data() + field.size(), value);
    if (ec != std::errc{} || ptr != field.data() + field.size()) {
        failAt(column, std::string("malformed ") + what + " '" +
                           std::string(field) + "'");
    }
    return value;
}

std::int64_t
AzureCsvRowStream::hintAt(std::size_t column, const char *what) const
{
    if (column == kNoColumn || fields_[column].empty())
        return 0;
    const std::int64_t value = fieldToInt(column, what);
    if (value < 0)
        failAt(column, std::string("negative ") + what);
    return value;
}

bool
AzureCsvRowStream::next(FunctionRow &row)
{
    if (!nextLine())
        return false;

    splitFields();
    if (fields_.size() <= first_minute_) {
        fatal(source_name_, " line ", line_no_, ": row ",
              rows_read_ + 1, " has no invocation columns");
    }
    const std::size_t counts = fields_.size() - first_minute_;
    if (counts != minute_columns_) {
        fatal(source_name_, " line ", line_no_, ": row ",
              rows_read_ + 1, " has ", counts,
              " minute columns, expected ", minute_columns_);
    }

    row.id = static_cast<FunctionId>(rows_read_);
    row.name = name_column_ != kNoColumn ? fields_[name_column_]
                                         : std::string_view();
    row.cls = FunctionClass::Unknown;
    // 0 means unknown (the profile matcher substitutes its defaults).
    row.memory_mb = hintAt(memory_column_, "memory column value");
    row.avg_exec_ms = hintAt(exec_column_, "exec-time column value");

    counts_.resize(minute_columns_);
    for (std::size_t i = 0; i < minute_columns_; ++i) {
        const std::size_t column = first_minute_ + i;
        const std::int64_t count =
            fieldToInt(column, "invocation count");
        if (count < 0)
            failAt(column, "negative invocation count");
        if (count > std::numeric_limits<std::uint32_t>::max()) {
            failAt(column, "invocation count " + std::to_string(count) +
                               " above 4294967295");
        }
        counts_[i] = static_cast<std::uint32_t>(count);
    }
    row.counts = counts_.data();
    row.num_intervals = minute_columns_;
    ++rows_read_;
    return true;
}

} // namespace iceb::trace
