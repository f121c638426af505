// Extraction of the abstract PageDb from the monitor's concrete in-memory
// representation — the refinement relation between implementation and spec.
// The refinement tests require ExtractPageDb(machine after impl call) to
// equal the spec function's output; the implementation keeps no C++ shadow
// state it could cheat with.
#ifndef SRC_SPEC_EXTRACT_H_
#define SRC_SPEC_EXTRACT_H_

#include <optional>
#include <string>

#include "src/arm/machine.h"
#include "src/spec/abstract_state.h"

namespace komodo::spec {

// A structural decode failure: the monitor's in-memory state does not
// represent any abstract PageDb (e.g. a page-table descriptor pointing
// outside the secure region, or a PageDB type word with no variant). A
// correct monitor never produces one; fault injections can.
struct ExtractError {
  PageNr page = kInvalidPage;  // secure page being decoded (kInvalidPage: PageDB header)
  std::string detail;
};

// Reads the PageDB region, typed secure pages and hardware page tables out of
// simulated memory and reifies the abstract state. Returns nullopt (filling
// *err when non-null) if the representation cannot be decoded; semantic
// invariants are checked separately (invariants.h).
std::optional<PageDb> TryExtractPageDb(const arm::MachineState& m, ExtractError* err = nullptr);

// Incremental TryExtractPageDb for a memory with dirty tracking on (DESIGN.md
// §12, "Incremental extraction"). `base` must be the extraction of `m` as it
// was when its dirty set was last empty. Re-decodes only the entries whose
// secure page is dirty or whose PageDB type or owner word changed, and
// everything if npages changed. Returns false, filling *err exactly as
// TryExtractPageDb would, iff `m` does not decode. Otherwise returns true
// with *changed holding `base` with those entries re-decoded, or nullopt when
// no entry needed it (`m` still extracts to `base`).
bool TryReextractPageDb(const arm::MachineState& m, const PageDb& base,
                        std::optional<PageDb>* changed, ExtractError* err = nullptr);

// Abort-on-failure wrapper for callers that have already established
// decodability (the refinement and property tests). The differential oracles
// and the model checker use TryExtractPageDb so an injected fault surfaces as
// an oracle failure instead of killing the process.
PageDb ExtractPageDb(const arm::MachineState& m);

// Reads one insecure physical page as words (spec input for MapSecure).
std::array<word, arm::kWordsPerPage> ReadInsecurePage(const arm::MachineState& m,
                                                      word insecure_pgnr);

}  // namespace komodo::spec

#endif  // SRC_SPEC_EXTRACT_H_
