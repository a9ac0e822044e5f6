/**
 * @file
 * Strict parsing of numeric command-line values, shared by the bench
 * and example programs.
 */

#ifndef ICEB_COMMON_CLI_HH
#define ICEB_COMMON_CLI_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace iceb
{

/**
 * Parse @p text, the value given for command-line flag @p flag, as an
 * unsigned integer in [@p lo, @p hi]: decimal, or hex/octal by prefix
 * (strtoull base 0). strtoull alone would also take a sign or leading
 * space ("-1" wraps to 2^64 - 1), so the text must start with a
 * digit; trailing text and overflow are rejected too. On bad text,
 * prints "<prog>: bad value '<text>' for <flag>" to stderr and returns
 * nullopt, so each program exits with its own usage and status.
 */
std::optional<std::uint64_t>
parseUintFlag(std::string_view prog, std::string_view flag,
              const char *text, std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

} // namespace iceb

#endif // ICEB_COMMON_CLI_HH
