// The step refinement relation (§5.2): when does one implementation call
// refine its specification? komodo-fuzz's refinement oracle and
// komodo-verify's obligation 2 both judge every call through JudgeStep, so
// a bounded check and a random search check the same relation.
//
// User execution is havoc in the spec (§5.1). An Enter/Resume whose spec
// guard passed may run arbitrary enclave code, so it may return success,
// interrupted or fault and land on any PageDb; the caller resynchronizes
// from the implementation's post-state. The SVCs whose effects live in user
// memory (Exit, Attest, Verify) are havoc too, with any error word: the
// explorer pins their error sets against the call registry instead. Every
// other call must return the spec's error word and, on success, land on the
// spec's PageDb; a failed call must leave the PageDb as it was.
#ifndef SRC_SPEC_REFINEMENT_H_
#define SRC_SPEC_REFINEMENT_H_

#include <optional>
#include <string>

#include "src/spec/abstract_state.h"
#include "src/spec/spec_calls.h"

namespace komodo::spec {

// The call a step made: an SMC issued by the OS or an SVC issued by an
// enclave, by number.
struct StepCall {
  bool is_svc = false;
  word number = 0;

  static StepCall Smc(word number) { return {false, number}; }
  static StepCall Svc(word number) { return {true, number}; }
};

// Judges one step from abstract state `pre`: `spec` is the spec's result for
// `call` on `pre`, `impl_err` the implementation's ABI error word and `post`
// the extraction of its post-state. Returns the failure text, or nullopt
// when the step refines the spec.
//
// A null `post` means the post-state did not decode. The judge then checks
// only what needs no post-state, so a wrong error word is reported ahead of
// the extraction failure, which the caller reports if the step passes.
// `post` may alias `pre` when the caller knows the step changed no entry.
std::optional<std::string> JudgeStep(StepCall call, const Result& spec, word impl_err,
                                     const PageDb& pre, const PageDb* post);

}  // namespace komodo::spec

#endif  // SRC_SPEC_REFINEMENT_H_
