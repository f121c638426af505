// Shared checked numeric parsing for the komodo-* command-line tools.
//
// strtoull with a null endptr accepts "10x" as 10 and "abc" as 0 without
// complaint — and for tools whose whole stdout is a pure function of flags
// like --seed, a typo then silently runs a *different* deterministic
// campaign. ParseU64 demands the full token parse (src/util/checked_parse.h),
// rejects negatives (which strtoull would wrap), range-checks, and exits with
// a diagnostic naming the offending flag.
#ifndef TOOLS_CLI_UTIL_H_
#define TOOLS_CLI_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "src/util/checked_parse.h"

namespace komodo::cli {

// Parses `value` as an unsigned 64-bit integer — decimal, or hex/octal with
// the usual 0x/0 prefixes (base 0). The entire token must be consumed and
// the result must lie in [min_value, max_value]; any violation prints a
// one-line diagnostic naming `flag` and exits with status 2 (usage error).
inline uint64_t ParseU64(const char* prog, const char* flag, const char* value,
                         uint64_t min_value = 0,
                         uint64_t max_value = std::numeric_limits<uint64_t>::max()) {
  uint64_t parsed = 0;
  if (!TryParseU64(value, &parsed)) {
    std::fprintf(stderr, "%s: %s expects an unsigned integer, got '%s'\n", prog, flag,
                 value == nullptr ? "" : value);
    std::exit(2);
  }
  if (parsed < min_value || parsed > max_value) {
    std::fprintf(stderr, "%s: %s must be in [%llu, %llu], got %s\n", prog, flag,
                 static_cast<unsigned long long>(min_value),
                 static_cast<unsigned long long>(max_value), value);
    std::exit(2);
  }
  return parsed;
}

}  // namespace komodo::cli

#endif  // TOOLS_CLI_UTIL_H_
