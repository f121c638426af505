// Footprint-vs-scan differential suite (DESIGN.md §8): the interpreter's
// live-page-table footprint must be architecturally invisible. Every test
// here runs the same program on a machine answering the §5.1 store check
// through the footprint and on one answering it with the O(L1)
// AddrInLivePageTable scan, and requires bit-identical final state —
// registers, banked state, memory, TLB-consistency bit, cycle count and
// per-step exception trace. The adversarial cases are the ones a stale
// footprint would get wrong: stores into the live tables, live page-table
// edits from monitor C++ and TTBR rewrites across enclave switches.
#include <gtest/gtest.h>

#include <vector>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/arm/page_table.h"
#include "src/crypto/drbg.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/os/world.h"

namespace komodo::arm {
namespace {

// Secure privileged machine layout: page 0 holds the L1 table, page 1 four
// L2 tables of which only the second is live, page 2 the code. Code and data
// are reached through the TTBR1 direct map, so every store consults the
// footprint (TTBR0 is set) while no user-mode walk is needed.
constexpr paddr kL1 = kSecurePagesBase;
constexpr paddr kL2Page = kSecurePagesBase + kPageSize;
constexpr paddr kLiveL2 = kL2Page + kL2TableBytes;
constexpr paddr kCodePage = kSecurePagesBase + 2 * kPageSize;
constexpr vaddr kCodeVa = kDirectMapVbase + kCodePage;
// The random programs' stores land at [R10, R10+252]: half in the dead L2
// table below the live one, half in the live one.
constexpr vaddr kScratchVa = kDirectMapVbase + kLiveL2 - 128;
constexpr vaddr kDeadVa = kDirectMapVbase + kL2Page;

// The field-by-field comparison lives in the fuzz library (the interp oracle
// uses the same one); here each differing field becomes its own failure.
void ExpectSameState(const MachineState& a, const MachineState& b) {
  for (const std::string& diff : fuzz::MachineDiff(a, b)) {
    ADD_FAILURE() << diff;
  }
}

MachineState MakeSecureMachine(const std::vector<word>& code, bool footprint) {
  MachineState m(8);
  m.interp.set_enabled(footprint);
  m.mem.Write(kL1 + 5 * kWordSize, MakeL1PageTableDesc(kLiveL2));
  for (size_t i = 0; i < code.size(); ++i) {
    m.mem.Write(kCodePage + static_cast<word>(i) * kWordSize, code[i]);
  }
  m.cpsr.mode = Mode::kMonitor;
  m.WriteTtbr0(kL1);
  m.FlushTlb();
  m.cpsr.mode = Mode::kSupervisor;  // secure world (SCR.NS stays 0)
  m.pc = kCodeVa;
  return m;
}

// Steps both machines in lockstep for `max_steps`, requiring the same
// per-step outcome (retired vs exception kind) and bit-identical final
// states (cycles and steps_retired included).
void RunLockstep(MachineState& fast, MachineState& scan, int max_steps) {
  for (int i = 0; i < max_steps; ++i) {
    const StepResult rf = Step(fast);
    const StepResult rs = Step(scan);
    ASSERT_EQ(rf.status, rs.status) << "step " << i;
    if (rf.status == StepStatus::kException) {
      ASSERT_EQ(rf.exception, rs.exception) << "step " << i;
    }
  }
  ExpectSameState(fast, scan);
}

// --- Randomized programs ---------------------------------------------------------

TEST(InterpDiffTest, RandomProgramsMatchExactly) {
  // The generator lives in the fuzz library (fuzz::RandomFlatInsn) so the
  // komodo-fuzz interp oracle and this suite exercise the same space.
  for (uint64_t seed = 0; seed < 24; ++seed) {
    crypto::HashDrbg drbg(0x9e3779b9 + seed);
    std::vector<word> code;
    const size_t len = 16 + drbg.Below(48);
    for (size_t i = 0; i < len; ++i) {
      code.push_back(Encode(fuzz::RandomFlatInsn(drbg)));
    }
    code.push_back(0xef000000);  // SVC #0 terminator

    MachineState fast = MakeSecureMachine(code, /*footprint=*/true);
    MachineState scan = MakeSecureMachine(code, /*footprint=*/false);
    for (MachineState* m : {&fast, &scan}) {
      for (int i = 0; i < 13; ++i) {
        crypto::HashDrbg rdrbg(seed * 131 + i);
        m->r[i] = rdrbg.NextWord();
      }
      m->r[10] = kScratchVa;
      m->r[11] = kCodeVa;
    }
    RunLockstep(fast, scan, static_cast<int>(len) + 8);
    if (::testing::Test::HasFailure()) {
      FAIL() << "divergence with seed " << seed;
    }
  }
}

// 500 stores beside the live table, each one a footprint lookup answered
// "no", then one into it, which must flip TLB consistency on both machines.
TEST(InterpDiffTest, TightStoreLoopMatches) {
  Assembler a(kCodeVa);
  a.MovImm(R0, 0);
  a.MovImm(R1, 500);
  a.MovImm(R2, kDeadVa);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R0, R0, 3);
  a.Str(R0, R2, 0);
  a.Subs(R1, R1, 1);
  a.B(loop, Cond::kNe);
  a.MovImm(R2, kDirectMapVbase + kLiveL2);
  a.Str(R0, R2, 0);
  a.Svc();
  const std::vector<word> code = a.Finish();

  MachineState fast = MakeSecureMachine(code, true);
  MachineState scan = MakeSecureMachine(code, false);
  RunLockstep(fast, scan, 2010);
  EXPECT_EQ(fast.r[0], 1500u);
  EXPECT_EQ(fast.mem.Read(kL2Page), 1500u);
  EXPECT_FALSE(fast.tlb_consistent);
  EXPECT_FALSE(scan.tlb_consistent);
}

// --- Enclave workloads (page tables + monitor in the loop) -----------------------

// Runs `fn` against a footprint world and a scan world and requires
// identical SMC results and machine state.
template <typename Fn>
void DiffWorlds(Fn fn) {
  os::World fast{64};
  os::World scan{64};
  fast.machine.interp.set_enabled(true);
  scan.machine.interp.set_enabled(false);
  fn(fast);
  fn(scan);
  ExpectSameState(fast.machine, scan.machine);
}

TEST(InterpDiffTest, Sha256EnclaveMatches) {
  DiffWorlds([](os::World& w) {
    os::EnclaveHandle e;
    auto built_e = w.os.NewEnclave().Code(enclave::Sha256Program()).SharedPage().Build();
    ASSERT_TRUE(built_e.ok());
    e = *std::move(built_e);
    std::vector<uint8_t> msg(300);
    for (size_t i = 0; i < msg.size(); ++i) {
      msg[i] = static_cast<uint8_t>(i * 7);
    }
    const word nblocks = enclave::StageSha256Message(w.os, e.shared_insecure_pgnr, msg);
    const os::EnterResult r = w.os.Enter(e.thread, nblocks);
    ASSERT_TRUE(r.exited());
  });
}

// Enter enclave A, then B, then A again: every Enter rewrites TTBR0, so a
// footprint kept across the switch would answer B's stores with A's tables.
TEST(InterpDiffTest, TtbrRewriteAcrossEnclaveSwitches) {
  DiffWorlds([](os::World& w) {
    os::EnclaveHandle a, b;
    auto built_a = w.os.NewEnclave().Code(enclave::CounterProgram()).Build();
    ASSERT_TRUE(built_a.ok());
    a = *std::move(built_a);
    auto built_b = w.os.NewEnclave().Code(enclave::AddTwoProgram()).Build();
    ASSERT_TRUE(built_b.ok());
    b = *std::move(built_b);
    os::EnterResult r = w.os.Enter(a.thread, 5);
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 5u);
    r = w.os.Enter(b.thread, 20, 22);
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 42u);
    r = w.os.Enter(a.thread, 7);  // counter persists in A's data page
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 12u);
  });
}

TEST(InterpDiffTest, DynamicMappingEnclaveMatches) {
  DiffWorlds([](os::World& w) {
    // MapData edits the live page table from monitor C++ mid-run, and the
    // enclave then stores through the new mapping.
    os::EnclaveHandle e;
    Assembler a(os::kEnclaveCodeVa);
    a.Mov(R7, R0);
    a.MovImm(R0, kSvcMapData);
    a.Mov(R1, R7);
    a.MovImm(R2, MakeMapping(0x30000, kMapR | kMapW));
    a.Svc();
    a.Mov(R4, R0);
    a.MovImm(R5, 0x30000);
    a.MovImm(R6, 0xbeef);
    a.Str(R6, R5, 0);
    a.Ldr(R1, R5, 0);
    a.Add(R1, R1, R4);
    a.MovImm(R0, kSvcExit);
    a.Svc();
    auto built_e = w.os.NewEnclave().Code(a.Finish()).Build();
    ASSERT_TRUE(built_e.ok());
    e = *std::move(built_e);
    const PageNr spare = w.os.AllocSecurePage();
    ASSERT_EQ(w.os.AllocSpare(e.addrspace, spare).err, kErrSuccess);
    const os::EnterResult r = w.os.Enter(e.thread, spare);
    ASSERT_TRUE(r.exited());
    EXPECT_EQ(r.payload, 0xbeefu);
  });
}

}  // namespace
}  // namespace komodo::arm
