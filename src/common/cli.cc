#include "common/cli.hh"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <iostream>

namespace iceb
{

std::optional<std::uint64_t>
parseUintFlag(std::string_view prog, std::string_view flag,
              const char *text, std::uint64_t lo, std::uint64_t hi)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (std::isdigit(static_cast<unsigned char>(text[0])) &&
        *end == '\0' && errno != ERANGE && value >= lo && value <= hi)
        return static_cast<std::uint64_t>(value);
    std::cerr << prog << ": bad value '" << text << "' for " << flag
              << "\n";
    return std::nullopt;
}

} // namespace iceb
