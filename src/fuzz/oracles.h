// The pluggable oracles of the fuzzing subsystem (DESIGN.md §10): each one
// replays a Trace against fresh world(s) and decides whether the monitor
// upheld its contract.
//
//   refinement        impl-vs-spec bisimulation through the call registry:
//                     every SMC's error code and resulting abstract PageDb
//                     must match spec::ApplySmc; SVCs are driven through a
//                     driver enclave and compared against spec::ApplySvc.
//   invariants        spec::PageDbViolations after every operation.
//   noninterference   two worlds differing only in a victim's secret replay
//                     the identical trace; every SMC result and the full
//                     ≈adv relation must stay equal.
//   interp            a world with the page-table footprint on and one with
//                     it off (AddrInLivePageTable scan) replay the same trace;
//                     SMC results and complete machine state must be
//                     bit-identical.
//
// A Verdict pinpoints the first failing operation, which is what the shrinker
// truncates to.
#ifndef SRC_FUZZ_ORACLES_H_
#define SRC_FUZZ_ORACLES_H_

#include <string>
#include <vector>

#include "src/arm/machine.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/trace.h"

namespace komodo::fuzz {

class WorldPool;

struct Verdict {
  bool failed = false;
  int failing_op = -1;  // index into trace.ops; -1 = setup/harness failure
  std::string detail;
};

// Replays `t` under its oracle. When `apply_inject` is set (the default) the
// trace's fault injection is armed for the duration of the run; passing false
// replays the same trace against the unbroken monitor (corpus tests use this
// to prove a witness fails *because of* its injection).
//
// `pool`, when given, supplies the oracle's world(s) via snapshot-reset
// reuse (DESIGN.md §11) instead of fresh construction; the verdict is
// identical either way. The campaign driver and the shrinker pass their
// per-thread pool; one-shot replays can leave it null.
//
// `cover`, when given, accumulates the coverage keys the run touched
// (DESIGN.md §15): per-op PageDb shape keys and the primary world's
// observability event set. Collection is architecturally invisible (the
// tracer is cycle bit-identical on/off), so the verdict never depends on it.
Verdict RunTrace(const Trace& t, bool apply_inject = true, WorldPool* pool = nullptr,
                 CoverageMap* cover = nullptr);

// Full architectural-state comparison (the non-gtest form of the interp-diff
// suite's ExpectSameState): registers, banked state, CPSR/SPSRs, system
// registers, TLB-consistency bit, retired-step and cycle counters, and all of
// memory. Empty = identical.
std::vector<std::string> MachineDiff(const arm::MachineState& a, const arm::MachineState& b);

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_ORACLES_H_
