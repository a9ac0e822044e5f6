#include "common/csv.hh"

namespace iceb
{

CsvWriter::CsvWriter(std::ostream &out, char delimiter)
    : out_(out), delimiter_(delimiter)
{
}

std::string
CsvWriter::escape(const std::string &field) const
{
    const bool needs_quotes =
        field.find(delimiter_) != std::string::npos ||
        field.find('"') != std::string::npos ||
        field.find('\n') != std::string::npos;
    if (!needs_quotes)
        return field;
    std::string out = "\"";
    for (char c : field) {
        if (c == '"')
            out += "\"\"";
        else
            out.push_back(c);
    }
    out.push_back('"');
    return out;
}

void
CsvWriter::writeRow(const CsvRow &row)
{
    for (std::size_t i = 0; i < row.size(); ++i) {
        if (i > 0)
            out_ << delimiter_;
        out_ << escape(row[i]);
    }
    out_ << '\n';
}

} // namespace iceb
