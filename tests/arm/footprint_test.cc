// Live-page-table footprint (DESIGN.md §8): LivePtFootprint::
// StoreHitsLivePageTable must answer exactly as the O(L1) reference scan
// AddrInLivePageTable, at every address, however the tables change
// underneath it. The differential test drives random L1/L2 layouts through
// L1 rewrites (word stores and whole-page writes), TTBR0 switches, unrelated
// stores and snapshot resets, probing both answers after every step. The
// discipline test checks the §5.1 tlb_consistent rule through interpreted
// execution with the footprint on and off.
#include <gtest/gtest.h>

#include <vector>

#include "src/arm/assembler.h"
#include "src/arm/execute.h"
#include "src/arm/interp_cache.h"
#include "src/arm/page_table.h"
#include "src/crypto/drbg.h"

namespace komodo::arm {
namespace {

constexpr word kSecurePages = 16;
// Candidate L1 tables: page-aligned ones and one straddling pages 1 and 2,
// so the footprint's first/last-page generation pair is exercised.
constexpr paddr kL1Candidates[] = {
    kSecurePagesBase,
    kSecurePagesBase + kPageSize + kPageSize / 2,
    kSecurePagesBase + 3 * kPageSize,
};
// L2 tables live in pages 4..11; two more candidates sit outside the
// secure pages (insecure RAM and an unmapped address), which the scan also
// counts as live.
constexpr paddr kL2PoolBase = kSecurePagesBase + 4 * kPageSize;
constexpr word kL2PoolTables = 8 * kL2TablesPerPage;
constexpr paddr kInsecureL2 = kInsecureBase + 0x1000;
constexpr paddr kUnmappedL2 = kSecurePagesBase + 64 * kPageSize;

paddr RandomL2Table(crypto::HashDrbg& drbg) {
  const uint32_t roll = drbg.Below(kL2PoolTables + 2);
  if (roll == kL2PoolTables) {
    return kInsecureL2;
  }
  if (roll == kL2PoolTables + 1) {
    return kUnmappedL2;
  }
  return kL2PoolBase + roll * kL2TableBytes;
}

// Half the entries are page-table descriptors, the rest faults or raw
// words that may or may not decode as one.
word RandomL1Desc(crypto::HashDrbg& drbg) {
  switch (drbg.Below(4)) {
    case 0:
      return kL1FaultDesc;
    case 1:
      return drbg.NextWord();
    default:
      return MakeL1PageTableDesc(RandomL2Table(drbg));
  }
}

void FillL1(PhysMemory& mem, paddr l1, crypto::HashDrbg& drbg) {
  for (word i = 0; i < kL1Entries; ++i) {
    // Sparse, like a real enclave's table: most entries fault.
    mem.Write(l1 + i * kWordSize, drbg.Below(8) == 0 ? RandomL1Desc(drbg) : kL1FaultDesc);
  }
}

// Every address where the answer can change: the edges of each candidate
// table, plus a few random words across the secure pages.
std::vector<paddr> ProbeAddrs(crypto::HashDrbg& drbg) {
  std::vector<paddr> out;
  auto edges = [&](paddr base, word bytes) {
    out.push_back(base - kWordSize);
    out.push_back(base);
    out.push_back(base + bytes - kWordSize);
    out.push_back(base + bytes);
  };
  for (const paddr l1 : kL1Candidates) {
    edges(l1, kL1Entries * kWordSize);
  }
  for (word t = 0; t < kL2PoolTables; ++t) {
    edges(kL2PoolBase + t * kL2TableBytes, kL2TableBytes);
  }
  edges(kInsecureL2, kL2TableBytes);
  edges(kUnmappedL2, kL2TableBytes);
  for (int i = 0; i < 8; ++i) {
    out.push_back(kSecurePagesBase + drbg.Below(kSecurePages * kWordsPerPage) * kWordSize);
  }
  return out;
}

TEST(FootprintDiffTest, MatchesScanAcrossRandomTableChurn) {
  for (uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE(seed);
    crypto::HashDrbg drbg(0xf007'0000 + seed);
    MachineState m(kSecurePages);
    ASSERT_TRUE(m.interp.enabled());
    for (const paddr l1 : kL1Candidates) {
      FillL1(m.mem, l1, drbg);
    }
    m.mem.EnableDirtyTracking();
    const MachineState snapshot = m;
    paddr ttbr0 = kL1Candidates[0];

    for (int step = 0; step < 250; ++step) {
      const uint32_t op = drbg.Below(20);
      const char* what = "";
      if (op < 8) {
        what = "rewrite a live L1 entry";
        m.mem.Write(ttbr0 + drbg.Below(kL1Entries) * kWordSize, RandomL1Desc(drbg));
      } else if (op < 10) {
        what = "rewrite an L1 entry of any candidate table";
        const paddr l1 = kL1Candidates[drbg.Below(3)];
        m.mem.Write(l1 + drbg.Below(kL1Entries) * kWordSize, RandomL1Desc(drbg));
      } else if (op < 12) {
        what = "switch TTBR0";
        ttbr0 = kL1Candidates[drbg.Below(3)];
      } else if (op < 14) {
        what = "store into the L2 pool";
        m.mem.Write(kL2PoolBase + drbg.Below(8 * kWordsPerPage) * kWordSize, drbg.NextWord());
      } else if (op < 15) {
        what = "whole-page write over an L1 page";
        std::vector<word> page(kWordsPerPage, kL1FaultDesc);
        for (word& w : page) {
          if (drbg.Below(16) == 0) {
            w = RandomL1Desc(drbg);
          }
        }
        m.mem.WritePage(kSecurePagesBase + drbg.Below(4) * kPageSize, page.data());
      } else if (op < 16) {
        what = "zero an L1 page";
        m.mem.ZeroPage(kSecurePagesBase + drbg.Below(4) * kPageSize);
      } else if (op < 18) {
        what = "ResetTo the snapshot";
        m.ResetTo(snapshot);
      } else {
        what = "probe only";
      }
      for (const paddr addr : ProbeAddrs(drbg)) {
        ASSERT_EQ(m.interp.StoreHitsLivePageTable(m.mem, ttbr0, addr),
                  AddrInLivePageTable(m.mem, ttbr0, addr))
            << "step " << step << " (" << what << "), ttbr0 0x" << std::hex << ttbr0
            << ", addr 0x" << addr;
      }
    }
  }
}

// The full §5.1 discipline through interpreted execution, with the footprint
// on and off: an enclave that maps its own L2 table user-writable and stores
// a new descriptor through it. The store must (a) take effect for later
// walks and (b) mark the TLB inconsistent until TLBIALL.
class TlbDisciplineTest : public ::testing::TestWithParam<bool> {};

TEST_P(TlbDisciplineTest, InterpretedStoreIntoLiveL2) {
  MachineState m(64);
  m.interp.set_enabled(GetParam());
  const paddr l1_base = kSecurePagesBase;
  const paddr l2_page = kSecurePagesBase + kPageSize;
  const paddr code_page = kSecurePagesBase + 2 * kPageSize;
  const paddr d1 = kSecurePagesBase + 3 * kPageSize;
  const paddr d2 = kSecurePagesBase + 4 * kPageSize;
  for (word k = 0; k < kL2TablesPerPage; ++k) {
    m.mem.Write(l1_base + k * kWordSize,
                MakeL1PageTableDesc(l2_page + k * kL2TableBytes));
  }
  auto map = [&](vaddr va, paddr page, bool w, bool x) {
    const word slot = (va >> 12) & 0x3ff;
    m.mem.Write(l2_page + slot * kWordSize, MakeL2SmallPageDesc(page, w, x, false));
  };
  map(0x8000, code_page, false, true);  // code
  map(0xa000, l2_page, true, false);    // the live L2 table itself, writable
  map(0xb000, d1, true, false);         // the VA the store will remap
  m.mem.Write(d1, 0x111u);
  m.mem.Write(d2, 0x222u);

  // LDR R4,[R3] reads through the original mapping of 0xb000; STR R1,[R0]
  // rewrites its descriptor through the 0xa000 window; LDR R2,[R3] (after
  // the flush below) must read through the remapped page.
  Assembler a(0x8000);
  a.Ldr(R4, R3, 0);
  a.Str(R1, R0, 0);
  a.Ldr(R2, R3, 0);
  const std::vector<word> code = a.Finish();
  for (size_t i = 0; i < code.size(); ++i) {
    m.mem.Write(code_page + static_cast<word>(i) * kWordSize, code[i]);
  }

  m.cpsr.mode = Mode::kMonitor;
  m.WriteTtbr0(l1_base);
  m.FlushTlb();
  m.cpsr.mode = Mode::kUser;  // secure world (SCR.NS stays 0)
  m.pc = 0x8000;
  m.r[3] = 0xb000;
  m.r[0] = 0xa000 + ((0xb000u >> 12) & 0x3ff) * kWordSize;  // 0xb000's L2 slot
  m.r[1] = MakeL2SmallPageDesc(d2, true, false, false);

  ASSERT_EQ(Step(m).status, StepStatus::kOk);
  EXPECT_EQ(m.r[4], 0x111u);
  ASSERT_TRUE(m.tlb_consistent);
  ASSERT_EQ(Step(m).status, StepStatus::kOk);  // store into the live L2
  EXPECT_FALSE(m.tlb_consistent) << "store into live page table not noticed";
  m.FlushTlb();  // TLBIALL restores consistency
  EXPECT_TRUE(m.tlb_consistent);
  ASSERT_EQ(Step(m).status, StepStatus::kOk);
  EXPECT_EQ(m.r[2], 0x222u) << "load used a stale translation after remap";
}

INSTANTIATE_TEST_SUITE_P(BothModes, TlbDisciplineTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? "footprint" : "scan";
                         });

}  // namespace
}  // namespace komodo::arm
