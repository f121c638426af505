#include "src/spec/refinement.h"

#include "src/core/kom_defs.h"

namespace komodo::spec {

namespace {

bool IsHavoc(StepCall call, const Result& spec) {
  if (call.is_svc) {
    return call.number == kSvcExit || call.number == kSvcAttest || call.number == kSvcVerify;
  }
  return (call.number == kSmcEnter || call.number == kSmcResume) && spec.err == kErrSuccess;
}

std::string Name(StepCall call) {
  return std::string(call.is_svc ? "svc " : "smc ") + std::to_string(call.number);
}

}  // namespace

std::optional<std::string> JudgeStep(StepCall call, const Result& spec, word impl_err,
                                     const PageDb& pre, const PageDb* post) {
  if (IsHavoc(call, spec)) {
    if (!call.is_svc && impl_err != kErrSuccess && impl_err != kErrInterrupted &&
        impl_err != kErrFault) {
      return std::string("enter/resume guard passed in spec but impl says ") +
             KomErrName(impl_err);
    }
    return std::nullopt;
  }
  if (impl_err != spec.err) {
    return Name(call) + " impl=" + KomErrName(impl_err) + " spec=" + KomErrName(spec.err);
  }
  if (post == nullptr) {
    return std::nullopt;
  }
  if (spec.err == kErrSuccess) {
    if (!(*post == spec.db)) {
      return Name(call) + " pagedb diverges from spec";
    }
  } else if (post != &pre && !(*post == pre)) {
    return Name(call) + " failed with " + KomErrName(impl_err) + " but mutated the pagedb";
  }
  return std::nullopt;
}

}  // namespace komodo::spec
