// The replayable trace format of the fuzzing subsystem (DESIGN.md §10).
//
// A trace is everything one oracle run needs to be reproduced byte for byte:
// which oracle, the world size, an optional fault injection, an optional
// victim-enclave program (by catalog name) with its planted secrets, and the
// operation sequence — insecure-memory pokes plus monitor calls. Minimized
// failures are serialized in a small line-oriented text form and committed to
// tests/corpus/ as regression witnesses.
#ifndef SRC_FUZZ_TRACE_H_
#define SRC_FUZZ_TRACE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/arm/types.h"

namespace komodo::fuzz {

using arm::word;

enum class OpKind : uint8_t {
  kPoke,    // poke <insecure pgnr> <word offset> <value>
  kSmc,     // smc <call> <a1> <a2> <a3> <a4>        (covers Enter/Resume too)
  kSvc,     // svc <call> <a1> <a2> <a3>             (via the driver enclave)
  kEnter,   // enter <a1> <a2> <a3>                  (enter the victim enclave)
  kResume,  // resume                                (resume the victim enclave)
};

struct TraceOp {
  OpKind kind = OpKind::kSmc;
  // poke: a[0]=pgnr, a[1]=word offset, a[2]=value.
  // smc:  a[0]=call, a[1..4]=args.  svc: a[0]=call, a[1..3]=args.
  // enter: a[1..3]=args.  resume: unused.
  word a[5] = {0, 0, 0, 0, 0};

  // Monitor calls (everything except pokes) are what the "reproducer of
  // <= 10 calls" acceptance bound counts.
  bool IsCall() const { return kind != OpKind::kPoke; }

  bool operator==(const TraceOp&) const = default;
};

struct Trace {
  std::string oracle;  // refinement | invariants | noninterference | interp
  uint64_t seed = 0;   // generator seed (printed on failure, replays the run)
  word pages = 24;     // secure pages of the world(s)
  std::string inject;  // fault injection name ("" = none), see inject.h
  std::string victim;  // victim program catalog name ("" = none)
  word secrets[2] = {0, 0};  // planted secrets (noninterference pairs)
  std::vector<TraceOp> ops;

  size_t CallCount() const;

  bool operator==(const Trace&) const = default;

  // Serialization. Format() and Parse() round-trip exactly; Hash() is the
  // SHA-256 hex of Format(), used for determinism pinning. Parse is strict:
  // unknown lines, wrong operand counts, malformed or out-of-range numbers,
  // duplicate header lines and content after `end` are rejected, and
  // `error` (if given) receives "line N: <reason>".
  std::string Format() const;
  std::string Hash() const;
  static std::optional<Trace> Parse(const std::string& text, std::string* error = nullptr);

  // File helpers for witness reproducers.
  bool WriteFile(const std::string& path) const;
  static std::optional<Trace> ReadFile(const std::string& path, std::string* error = nullptr);
};

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_TRACE_H_
