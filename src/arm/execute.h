// Single-step interpreter for the modelled instruction subset, with virtual
// memory translation, the TrustZone memory filter and asynchronous interrupt
// injection.
#ifndef SRC_ARM_EXECUTE_H_
#define SRC_ARM_EXECUTE_H_

#include <optional>

#include "src/arm/isa.h"
#include "src/arm/machine.h"

namespace komodo::arm {

enum class StepStatus : uint8_t {
  kOk,         // instruction retired, control stays in the current mode
  kException,  // an exception was taken (including SVC/SMC traps)
};

struct StepResult {
  StepStatus status = StepStatus::kOk;
  Exception exception = Exception::kUndefined;  // valid when status == kException
};

// Kinds of memory access for translation purposes.
enum class Access : uint8_t { kFetch, kRead, kWrite };

struct Translation {
  bool ok = false;
  paddr phys = 0;
};

// Translates `va` for the machine's current mode and world:
//  * normal world: flat mapping, but the TrustZone filter faults any access to
//    the monitor image or secure page region (§3.2's IOMMU-like partition);
//  * secure user: two-level walk from TTBR0 with permission checks;
//  * secure privileged: the monitor's static direct map at kDirectMapVbase.
Translation TranslateAddress(const MachineState& m, vaddr va, Access access);

// Executes one instruction (or takes a pending interrupt). All architectural
// effects — including exceptions — are applied to `m`; cycle costs are charged
// per the Cortex-A7 model.
StepResult Step(MachineState& m);

// Runs until control leaves user mode (an exception is taken) or `max_steps`
// instructions retire, one Step at a time. Returns the terminating exception,
// or nullopt if the step budget ran out with the machine still in user mode.
std::optional<Exception> RunUntilException(MachineState& m, uint64_t max_steps);

}  // namespace komodo::arm

#endif  // SRC_ARM_EXECUTE_H_
