// Trace and instruction generators for the fuzzing subsystem (DESIGN.md §10).
//
// Everything is a pure function of a HashDrbg (or a 64-bit seed), so a trace
// regenerates byte-identically from its header alone. The instruction
// generators were grown out of the enclave-fuzz and interp-diff suites and
// are shared with them, so ad-hoc test generators cannot drift away from what
// the fuzzer exercises.
#ifndef SRC_FUZZ_GENERATOR_H_
#define SRC_FUZZ_GENERATOR_H_

#include <string>
#include <vector>

#include "src/arm/isa.h"
#include "src/crypto/drbg.h"
#include "src/fuzz/trace.h"

namespace komodo::fuzz {

// A random well-formed user-mode instruction for enclave code pages: no SMC
// (undefined in user mode), destinations keep the PC out, branches stay near
// the code page. Always decodable.
word RandomEnclaveInsn(crypto::HashDrbg& drbg);

// A random instruction for bare flat-translation machines: destinations in
// R0-R9, loads/stores through the scratch base in R10, R11 preserved for the
// code base. Exercises every condition code and shift form.
arm::Instruction RandomFlatInsn(crypto::HashDrbg& drbg);

// A random code word for fuzzed code pages: mostly decodable instructions,
// sometimes a fully random word, and sometimes a cond=0b1111 encoding — the
// 0b1110 (always) vs 0b1111 (undefined) boundary that structured generators
// drawing conditions from Below(15) never reach.
word RandomCodeWord(crypto::HashDrbg& drbg);

// --- Victim-program catalog ---------------------------------------------------
//
// Victim enclaves referenced by name from traces. All victims read their
// "secret" from the first word of their data page (planted by the oracle
// after finalisation, modelling a secure channel).
//
//   internal-compute  squares the secret into data[1], exits with a constant
//   spin-scratch      loads the secret into r2/r3/r12 and spins until
//                     interrupted (the §5.2 scratch-register leak shape)
//   fault-secret      loads the secret into r2 and faults on an unmapped store
//   self-modify       rewrites its own loop body each iteration and exits with
//                     the iteration sum (self-modifying-code witness; its code
//                     page must be mapped writable, see VictimWantsWritableCode)
inline constexpr const char* kVictimNames[] = {"internal-compute", "spin-scratch",
                                               "fault-secret", "self-modify"};

// The victim's code, assembled at os::kEnclaveCodeVa. Empty if unknown.
std::vector<word> VictimProgram(const std::string& name);

// True if the victim's code page must be mapped R|W|X instead of R|X.
bool VictimWantsWritableCode(const std::string& name);

// --- Trace generation ---------------------------------------------------------

// Oracles a generated trace can target.
std::vector<std::string> OracleNames();

// Generates a randomized trace of `nops` operations for `oracle`,
// deterministically from `seed`. The op mix, world size and victim selection
// depend on the oracle: paired oracles (noninterference) pick a secret-bearing
// victim; the interp oracle sometimes runs the self-modifying victim; the
// spec-backed oracles (refinement, invariants) mix in driver-enclave SVCs.
Trace GenerateTrace(const std::string& oracle, uint64_t seed, size_t nops);

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_GENERATOR_H_
