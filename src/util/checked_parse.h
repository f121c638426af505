// Checked parsing for every external input: command-line flags
// (tools/cli_util.h), the fuzz trace format (src/fuzz/trace.cc) and the
// KOMODO_* environment variables.
//
// strtoul/strtoull alone accept "10x" as 10, "abc" as 0 and "-1" as the
// maximum value, and a cast to a narrower type silently truncates. These
// helpers accept a token only if all of it is one unsigned integer —
// decimal, or hex/octal with the usual 0x/0 prefixes (base 0) — that fits
// the target type. Switches accept exactly on|1|true and off|0|false.
#ifndef SRC_UTIL_CHECKED_PARSE_H_
#define SRC_UTIL_CHECKED_PARSE_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>

namespace komodo {

// Parses `token` into `*out`; returns false (leaving `*out` alone) unless the
// whole token is an unsigned integer that fits in 64 bits.
inline bool TryParseU64(const char* token, uint64_t* out) {
  // Demand a leading digit: rules out empty tokens, whitespace, and the
  // "-1" / "+1" forms strtoull would quietly accept (negatives by wrapping).
  if (token == nullptr || !std::isdigit(static_cast<unsigned char>(token[0]))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(token, &end, 0);
  if (errno == ERANGE || end == token || *end != '\0') {
    return false;
  }
  *out = parsed;
  return true;
}

// As TryParseU64, but the value must also fit in 32 bits.
inline bool TryParseU32(const char* token, uint32_t* out) {
  uint64_t v = 0;
  if (!TryParseU64(token, &v) || v > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

// Parses an on/off switch into `*out`; returns false (leaving `*out` alone)
// unless `token` is exactly one of on, 1, true, off, 0, false.
inline bool TryParseSwitch(const char* token, bool* out) {
  if (token == nullptr) {
    return false;
  }
  for (const char* on : {"on", "1", "true"}) {
    if (std::strcmp(token, on) == 0) {
      *out = true;
      return true;
    }
  }
  for (const char* off : {"off", "0", "false"}) {
    if (std::strcmp(token, off) == 0) {
      *out = false;
      return true;
    }
  }
  return false;
}

// Reads switch variable `name`: `fallback` when unset, else TryParseSwitch.
// Environment variables are read once, at startup, by code with no error
// path, so a malformed value aborts with "NAME: reason" instead of being
// coerced into some other setting.
inline bool EnvSwitch(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  bool on = fallback;
  if (v != nullptr && !TryParseSwitch(v, &on)) {
    std::fprintf(stderr, "%s: expected on|1|true|off|0|false, got \"%s\"\n", name, v);
    std::abort();
  }
  return on;
}

}  // namespace komodo

#endif  // SRC_UTIL_CHECKED_PARSE_H_
