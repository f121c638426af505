// Fault-injection registry for the fuzzing subsystem (DESIGN.md §10).
//
// Each flag deliberately re-introduces one historical bug class so the
// oracles can be shown to catch it and the shrinker can be shown to minimize
// it; the committed reproducers in tests/corpus/ each name one of these.
// Production code paths consult the flags through this header only — it is
// header-only and dependency-free on purpose, so src/core and src/arm can
// include it without linking against the fuzz library (no layering cycle).
// All flags default to off; nothing in a normal build or test run changes
// behaviour unless a fuzz harness switches one on.
#ifndef SRC_FUZZ_INJECT_H_
#define SRC_FUZZ_INJECT_H_

#include <string>

namespace komodo::fuzz {

struct InjectFlags {
  // SmcInitAddrspace accepts as_page == l1pt_page — the exact unverified-
  // prototype bug the paper's verification found (§9.1). Caught by the
  // refinement oracle (spec rejects, impl succeeds).
  bool initaddrspace_alias = false;

  // SmcRemove frees an address space whose refcount is nonzero, orphaning
  // the pages it still owns. Caught by the PageDB-invariant oracle.
  bool remove_skip_refcount = false;

  // The SMC epilogue skips zeroing the non-return scratch registers
  // (r2/r3/r4/r12), leaking enclave register state to the OS — the
  // register-sanitisation invariant of §5.2. Caught by the noninterference
  // oracle with a victim that keeps its secret in scratch registers.
  bool skip_scratch_clear = false;

  // Stores into a dirty-tracked PhysMemory skip recording their page in the
  // dirty list, so baseline-token equality (DESIGN.md §11) no longer sees
  // them. Caught by the fast-vs-full memory equality differential test.
  bool dirty_bypass = false;
};

// The flag set (C++17 inline variable: one instance per thread across all
// translation units, zero-initialised, no registration needed). Thread-local
// because the parallel campaign driver (DESIGN.md §11) arms an injection per
// oracle run on each worker; the monitor/interpreter code consulting the
// flags always runs on the thread that armed them, and workers must not see
// each other's (or the main thread's) injections.
inline thread_local InjectFlags g_inject_flags;

inline InjectFlags& Inject() { return g_inject_flags; }

// Name <-> flag mapping used by the trace format, the CLI and the corpus
// replay suite. "none"/"" means no injection. Returns false for an unknown
// name (flags left untouched).
inline bool SetInjectByName(const std::string& name) {
  InjectFlags f;
  if (name == "" || name == "none") {
    // all off
  } else if (name == "initaddrspace-alias") {
    f.initaddrspace_alias = true;
  } else if (name == "remove-skip-refcount") {
    f.remove_skip_refcount = true;
  } else if (name == "skip-scratch-clear") {
    f.skip_scratch_clear = true;
  } else if (name == "dirty-bypass") {
    f.dirty_bypass = true;
  } else {
    return false;
  }
  g_inject_flags = f;
  return true;
}

inline const char* const kInjectNames[] = {
    "initaddrspace-alias",
    "remove-skip-refcount",
    "skip-scratch-clear",
    "dirty-bypass",
};

// RAII: applies a named injection for the duration of one oracle run and
// restores the previous flags afterwards.
class ScopedInject {
 public:
  explicit ScopedInject(const std::string& name) : saved_(g_inject_flags) {
    SetInjectByName(name);
  }
  ~ScopedInject() { g_inject_flags = saved_; }
  ScopedInject(const ScopedInject&) = delete;
  ScopedInject& operator=(const ScopedInject&) = delete;

 private:
  InjectFlags saved_;
};

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_INJECT_H_
