// Shifter and addressing edge cases audited for the fuzzing subsystem
// (DESIGN.md §10): the flag corners a structured generator rarely reaches —
// immediate-rotate carry-out, RRX, the LSR/ASR #32 encodings, the cond
// 0b1110/0b1111 boundary, LDM/STM with the base register in the list, and
// the PC-as-data conventions (STR stores insn_addr+8, LDR masks alignment),
// plus RunUntilException's step budget.
#include <gtest/gtest.h>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/arm/isa.h"

namespace komodo::arm {
namespace {

constexpr vaddr kCodeBase = 0x2000;

MachineState MakeMachine(const std::vector<word>& code) {
  MachineState m(16);
  m.cpsr.mode = Mode::kMonitor;
  m.SetScrNs(true);
  m.cpsr.mode = Mode::kSupervisor;
  for (size_t i = 0; i < code.size(); ++i) {
    m.mem.Write(kCodeBase + static_cast<word>(i) * kWordSize, code[i]);
  }
  m.pc = kCodeBase;
  m.vbar_secure = kDirectMapVbase + kMonitorBase + 0x100;
  m.vbar_monitor = kDirectMapVbase + kMonitorBase + 0x200;
  return m;
}

MachineState RunToSvc(const std::vector<word>& code) {
  MachineState m = MakeMachine(code);
  const std::optional<Exception> exc = RunUntilException(m, 10000);
  EXPECT_EQ(exc, Exception::kSvc);
  return m;
}

Instruction Movs(Reg rd, Operand2 op2) {
  Instruction i;
  i.op = Op::kMov;
  i.set_flags = true;
  i.rd = rd;
  i.op2 = op2;
  return i;
}

TEST(IsaEdge, ImmediateRotateCarryOutIsBit31) {
  // MOVS with a rotated immediate (rot4 != 0) sets C to bit 31 of the value;
  // with rot4 == 0 the carry is untouched.
  Assembler a(kCodeBase);
  a.MovImm(R0, 1);
  a.Adds(R1, R0, R0);                          // 1 + 1: C := 0
  a.Emit(Movs(R2, Operand2::Imm(0x80, 4)));    // ror(0x80, 8) = 0x8000'0000, C := 1
  a.MrsCpsr(R4);
  a.Cmp(R0, 0u);                               // 1 - 0: C := 1
  a.Emit(Movs(R3, Operand2::Imm(0x01, 1)));    // ror(1, 2) = 0x4000'0000, C := 0
  a.MrsCpsr(R5);
  a.Cmp(R0, 0u);                               // C := 1
  a.Emit(Movs(R6, Operand2::Imm(0x05, 0)));    // rot4 == 0: C unchanged (1)
  a.Svc();
  MachineState m = RunToSvc(a.Finish());
  EXPECT_EQ(m.r[2], 0x8000'0000u);
  EXPECT_NE(m.r[4] & (1u << 29), 0u) << "rot4!=0, bit31=1 must set C";
  EXPECT_EQ(m.r[3], 0x4000'0000u);
  EXPECT_EQ(m.r[5] & (1u << 29), 0u) << "rot4!=0, bit31=0 must clear C";
  EXPECT_TRUE(m.cpsr.c) << "rot4==0 must leave C untouched";
}

TEST(IsaEdge, RrxRotatesThroughCarry) {
  // Register-form ROR #0 is RRX: result = (value >> 1) | C<<31, C := bit 0.
  Assembler a(kCodeBase);
  a.MovImm(R0, 3);
  a.Cmp(R0, 0u);                                            // C := 1
  a.Emit(Movs(R1, Operand2::Rm(R0, ShiftKind::kRor, 0)));   // (3>>1)|1<<31, C := 1
  a.Emit(Movs(R2, Operand2::Rm(R1, ShiftKind::kRor, 0)));   // chain the carry again
  a.MovImm(R3, 4);
  a.Adds(R4, R3, R3);                                       // C := 0
  a.Emit(Movs(R5, Operand2::Rm(R0, ShiftKind::kRor, 0)));   // (3>>1)|0, C := 1
  a.Svc();
  MachineState m = RunToSvc(a.Finish());
  EXPECT_EQ(m.r[1], 0x8000'0001u);
  EXPECT_EQ(m.r[2], 0xc000'0000u);
  EXPECT_EQ(m.r[5], 0x0000'0001u);
  EXPECT_TRUE(m.cpsr.c) << "RRX carry-out is bit 0 of the input";
}

TEST(IsaEdge, LsrAsrEncodedShiftZeroMeansThirtyTwo) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 0x8000'0001);
  a.Emit(Movs(R1, Operand2::Rm(R0, ShiftKind::kLsr, 0)));  // LSR #32: 0, C := bit31
  a.MrsCpsr(R4);
  a.Emit(Movs(R2, Operand2::Rm(R0, ShiftKind::kAsr, 0)));  // ASR #32: sign-fill
  a.MovImm(R5, 0x7fff'ffff);
  a.Emit(Movs(R3, Operand2::Rm(R5, ShiftKind::kAsr, 0)));  // positive: 0, C := 0
  a.Svc();
  MachineState m = RunToSvc(a.Finish());
  EXPECT_EQ(m.r[1], 0u);
  EXPECT_NE(m.r[4] & (1u << 29), 0u) << "LSR #32 carry-out is bit 31";
  EXPECT_NE(m.r[4] & (1u << 30), 0u) << "LSR #32 of nonzero sets Z on zero result";
  EXPECT_EQ(m.r[2], 0xffff'ffffu);
  EXPECT_EQ(m.r[3], 0u);
  EXPECT_FALSE(m.cpsr.c) << "ASR #32 carry-out is the sign bit";
}

TEST(IsaEdge, CondAlwaysExecutesAndCondNvIsUndefined) {
  // cond 0b1110 (AL) executes regardless of flags; the 0b1111 space is
  // outside the modelled subset and must raise Undefined, not execute.
  EXPECT_TRUE(Decode(0xe3a01001u).has_value());   // MOV r1, #1
  EXPECT_FALSE(Decode(0xf3a01001u).has_value());  // same bits, cond=0b1111

  Assembler a(kCodeBase);
  a.MovImm(R1, 0);
  a.EmitWord(0xf3a01001u);  // must trap, not assign r1
  a.Svc();
  MachineState m = MakeMachine(a.Finish());
  const std::optional<Exception> exc = RunUntilException(m, 100);
  EXPECT_EQ(exc, Exception::kUndefined);
  EXPECT_EQ(m.r[1], 0u);
}

TEST(IsaEdge, LdmBaseInListLoadWinsOverWriteback) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 0x3000);
  a.MovImm(R2, 0x1111);
  a.Str(R2, R0, 0);
  a.MovImm(R2, 0x2222);
  a.Str(R2, R0, 4);
  a.Ldmia(R0, 0b0011, /*writeback=*/true);  // LDMIA r0!, {r0, r1}
  a.Svc();
  MachineState m = RunToSvc(a.Finish());
  EXPECT_EQ(m.r[0], 0x1111u) << "loaded base must win over writeback";
  EXPECT_EQ(m.r[1], 0x2222u);
}

TEST(IsaEdge, StmBaseInListStoresOriginalBaseThenWritesBack) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 0x3000);
  a.MovImm(R1, 0x7);
  a.Stmia(R0, 0b0011, /*writeback=*/true);  // STMIA r0!, {r0, r1}
  a.MovImm(R4, 0x3000);
  a.Ldr(R2, R4, 0);
  a.Ldr(R3, R4, 4);
  a.Svc();
  MachineState m = RunToSvc(a.Finish());
  EXPECT_EQ(m.r[2], 0x3000u) << "STM stores the pre-writeback base value";
  EXPECT_EQ(m.r[3], 0x7u);
  EXPECT_EQ(m.r[0], 0x3008u) << "writeback still advances the base";
}

TEST(IsaEdge, StrPcStoresInstructionAddressPlusEight) {
  Assembler a(kCodeBase);
  a.MovImm(R0, 0x3000);
  const vaddr str_addr = a.CurrentAddr();
  Instruction str;
  str.op = Op::kStr;
  str.rd = PC;
  str.rn = R0;
  a.Emit(str);
  a.Ldr(R1, R0, 0);
  a.Svc();
  MachineState m = RunToSvc(a.Finish());
  EXPECT_EQ(m.r[1], str_addr + 8);
}

TEST(IsaEdge, LdrToPcMasksAlignmentBits) {
  // A function pointer with stray low bits still lands on the word boundary.
  constexpr vaddr kTarget = 0x2100;
  Assembler t(kTarget);
  t.MovImm(R5, 0x77);
  t.Svc();
  const std::vector<word> target = t.Finish();

  Assembler a(kCodeBase);
  a.MovImm(R0, 0x3000);
  a.MovImm(R1, kTarget | 2);  // misaligned pointer
  a.Str(R1, R0, 0);
  a.Ldr(PC, R0, 0);
  MachineState m = MakeMachine(a.Finish());
  for (size_t i = 0; i < target.size(); ++i) {
    m.mem.Write(kTarget + static_cast<word>(i) * kWordSize, target[i]);
  }
  const std::optional<Exception> exc = RunUntilException(m, 1000);
  EXPECT_EQ(exc, Exception::kSvc);
  EXPECT_EQ(m.r[5], 0x77u) << "execution must land at the masked address";
}

TEST(IsaEdge, LdmIntoPcMasksAlignmentBits) {
  constexpr vaddr kTarget = 0x2100;
  Assembler t(kTarget);
  t.MovImm(R5, 0x99);
  t.Svc();
  const std::vector<word> target = t.Finish();

  Assembler a(kCodeBase);
  a.MovImm(R0, 0x3000);
  a.MovImm(R1, kTarget | 1);
  a.Str(R1, R0, 0);
  a.Ldmia(R0, 1u << 15);  // LDMIA r0, {pc}
  MachineState m = MakeMachine(a.Finish());
  for (size_t i = 0; i < target.size(); ++i) {
    m.mem.Write(kTarget + static_cast<word>(i) * kWordSize, target[i]);
  }
  const std::optional<Exception> exc = RunUntilException(m, 1000);
  EXPECT_EQ(exc, Exception::kSvc);
  EXPECT_EQ(m.r[5], 0x99u);
}

TEST(IsaEdge, BudgetExhaustionRetiresExactStepCount) {
  // An infinite loop: RunUntilException must stop with no exception after
  // exactly max_steps retired instructions, mid-way through a loop lap.
  Assembler a(kCodeBase);
  Assembler::Label loop = a.NewLabel();
  a.Bind(loop);
  a.Add(R0, R0, 1);
  a.Add(R1, R1, 2);
  a.Add(R2, R2, 3);
  a.B(loop);
  MachineState m = MakeMachine(a.Finish());
  EXPECT_EQ(RunUntilException(m, 107), std::nullopt);
  EXPECT_EQ(m.steps_retired, 107u);
  // 26 four-instruction laps, then the three ADDs of the 27th.
  EXPECT_EQ(m.r[0], 27u);
  EXPECT_EQ(m.r[2], 81u);
}

}  // namespace
}  // namespace komodo::arm
