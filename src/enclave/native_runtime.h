// Native enclave programs: C++ code standing in for compiled enclave
// binaries, plugged into the monitor's user-execution hook.
//
// This mirrors the paper's own treatment of user-mode execution (§5.1): the
// hardware model does not interpret enclave instructions either — it models
// user execution as an arbitrary function of the user-visible state. A native
// program may only touch state a real enclave could (user registers and
// memory reachable through its page table, enforced here) and charges cycles
// for the work its compiled equivalent would do on the Cortex-A7.
#ifndef SRC_ENCLAVE_NATIVE_RUNTIME_H_
#define SRC_ENCLAVE_NATIVE_RUNTIME_H_

#include <map>
#include <memory>
#include <optional>

#include "src/arm/execute.h"
#include "src/arm/machine.h"
#include "src/arm/page_table.h"
#include "src/core/kom_defs.h"
#include "src/core/monitor.h"

namespace komodo::enclave {

// The user-visible machine state, as a native program is allowed to see it.
class UserContext {
 public:
  explicit UserContext(arm::MachineState& m) : m_(m) {}

  word Reg(int i) const { return m_.r[i]; }
  void SetReg(int i, word v) { m_.r[i] = v; }

  // Word access through the enclave's page table with user permissions.
  // Returns false on a translation/permission failure (the program should
  // then fault). Charges one load/store.
  bool Read(vaddr va, word* out);
  bool Write(vaddr va, word value);
  // Bulk helpers; charge per word.
  bool ReadBytes(vaddr va, uint8_t* out, size_t len);
  bool WriteBytes(vaddr va, const uint8_t* data, size_t len);

  // Models computation the program performs between memory accesses.
  void ChargeCycles(uint64_t cycles) { m_.cycles.Charge(cycles); }

 private:
  arm::MachineState& m_;
};

// How a native program yields control (always via a real exception — the
// runtime raises it on the machine so the monitor's Figure 3 state machine
// runs unchanged).
struct UserAction {
  enum class Kind { kExit, kSvc, kFault };
  Kind kind = Kind::kExit;
  word svc_call = kSvcExit;
  word args[3] = {0, 0, 0};

  static UserAction Exit(word retval) {
    UserAction a;
    a.kind = Kind::kExit;
    a.svc_call = kSvcExit;
    a.args[0] = retval;
    return a;
  }
  static UserAction Svc(word call, word a1 = 0, word a2 = 0, word a3 = 0) {
    UserAction a;
    a.kind = Kind::kSvc;
    a.svc_call = call;
    a.args[0] = a1;
    a.args[1] = a2;
    a.args[2] = a3;
    return a;
  }
  static UserAction Fault() {
    UserAction a;
    a.kind = Kind::kFault;
    return a;
  }
};

class NativeProgram {
 public:
  virtual ~NativeProgram() = default;
  // Invoked whenever control enters user mode (initial entry, resume, or
  // return from an SVC — distinguish via internal state and the registers).
  virtual UserAction Run(UserContext& ctx) = 0;
};

// Dispatches user execution to the native program registered for the active
// address space (keyed by TTBR0, i.e. the enclave page-table base).
class NativeRuntime {
 public:
  // Installs this runtime as the monitor's user-execution engine.
  explicit NativeRuntime(Monitor& monitor);

  // Registers `program` for the enclave whose L1 table lives in `l1pt_page`.
  void Register(PageNr l1pt_page, std::shared_ptr<NativeProgram> program);

  // Runs the registered program for the active address space; nullopt (the
  // monitor's interpreter runs it) when none is registered.
  std::optional<arm::Exception> RunUser(arm::MachineState& m);

 private:
  std::map<word, std::shared_ptr<NativeProgram>> programs_;  // by TTBR0 value
};

}  // namespace komodo::enclave

#endif  // SRC_ENCLAVE_NATIVE_RUNTIME_H_
