// Differential test of the monitor's charged bulk page ops (DESIGN.md §6)
// against the per-word loops they replace, at each of the five monitor call
// sites that use them: the InitAddrspace, InitL2Table, Remove and MapData
// zero-fills and the MapSecure copy. Cycles and memory must match the loop;
// the page generation must move (page-table footprint coherence); dirty
// tracking must record the page; and the dirty-bypass injection must still
// drop that record.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <random>
#include <vector>

#include "src/core/monitor_ops.h"
#include "src/fuzz/inject.h"
#include "src/os/world.h"

namespace komodo {
namespace {

using os::World;

// The loops the monitor ran before its bulk ops, one word at a time through
// the charged accessors, with 3 cycles of loop overhead per word.
constexpr uint64_t kLoopOverheadCycles = 3;

void ReferenceZeroLoop(arm::MachineState& m, paddr dst) {
  MonitorOps ops(m);
  for (word i = 0; i < arm::kWordsPerPage; ++i) {
    m.cycles.Charge(kLoopOverheadCycles);
    ops.StorePhys(dst + i * arm::kWordSize, 0);
  }
}

void ReferenceCopyLoop(arm::MachineState& m, paddr dst, paddr src) {
  MonitorOps ops(m);
  for (word i = 0; i < arm::kWordsPerPage; ++i) {
    m.cycles.Charge(kLoopOverheadCycles);
    ops.StorePhys(dst + i * arm::kWordSize, ops.LoadPhys(src + i * arm::kWordSize));
  }
}

std::vector<word> RandomPage(uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<word> words(arm::kWordsPerPage);
  for (word& w : words) {
    w = rng();
  }
  return words;
}

// Fills a (free or about-to-be-scrubbed) secure page with nonzero words, as a
// recycled page would hold, so a zero-fill is visible.
void Scribble(World& w, PageNr page) {
  const std::vector<word> junk = RandomPage(page);
  w.machine.mem.WritePage(PagePaddr(page), junk.data());
}

enum class SiteKind { kInitAddrspace, kInitL2Table, kMapSecure, kRemove, kMapData };

// A world brought to the state just before one call site runs, the page the
// site's bulk op writes (and, for the copy, the page it reads), and the call.
struct Site {
  paddr dst = 0;
  std::optional<paddr> src;
  std::function<bool(World&)> call;
};

Site Prepare(World& w, SiteKind kind) {
  Site s;
  switch (kind) {
    case SiteKind::kInitAddrspace: {
      const PageNr as = w.os.AllocSecurePage();
      const PageNr l1 = w.os.AllocSecurePage();
      Scribble(w, l1);
      s.dst = PagePaddr(l1);
      s.call = [as, l1](World& x) { return x.os.InitAddrspace(as, l1).err == kErrSuccess; };
      break;
    }
    case SiteKind::kInitL2Table:
    case SiteKind::kMapSecure: {
      const PageNr as = w.os.AllocSecurePage();
      const PageNr l1 = w.os.AllocSecurePage();
      EXPECT_EQ(w.os.InitAddrspace(as, l1).err, kErrSuccess);
      const PageNr l2 = w.os.AllocSecurePage();
      if (kind == SiteKind::kInitL2Table) {
        Scribble(w, l2);
        s.dst = PagePaddr(l2);
        s.call = [as, l2](World& x) { return x.os.InitL2Table(as, l2, 0).err == kErrSuccess; };
        break;
      }
      EXPECT_EQ(w.os.InitL2Table(as, l2, 0).err, kErrSuccess);
      const word staging = w.os.AllocInsecurePage();
      w.os.WriteInsecurePage(staging, RandomPage(staging));
      const PageNr data = w.os.AllocSecurePage();
      Scribble(w, data);
      s.dst = PagePaddr(data);
      s.src = staging * arm::kPageSize;
      s.call = [as, data, staging](World& x) {
        const word mapping = MakeMapping(os::kEnclaveCodeVa, kMapR | kMapX);
        return x.os.MapSecure(as, data, mapping, staging).err == kErrSuccess;
      };
      break;
    }
    case SiteKind::kRemove: {
      auto built = w.os.NewEnclave().Code(RandomPage(7)).Build();
      EXPECT_TRUE(built.ok());
      const os::EnclaveHandle e = *std::move(built);
      EXPECT_EQ(w.os.Stop(e.addrspace).err, kErrSuccess);
      const PageNr code = e.data_pages.at(0);
      s.dst = PagePaddr(code);
      s.call = [code](World& x) { return x.os.Remove(code).err == kErrSuccess; };
      break;
    }
    case SiteKind::kMapData: {
      auto built = w.os.NewEnclave().Code({0xef000000}).Build();
      EXPECT_TRUE(built.ok());
      const os::EnclaveHandle e = *std::move(built);
      const PageNr spare = w.os.AllocSecurePage();
      EXPECT_EQ(w.os.AllocSpare(e.addrspace, spare).err, kErrSuccess);
      Scribble(w, spare);
      s.dst = PagePaddr(spare);
      s.call = [e, spare](World& x) {
        Monitor::SvcCtx ctx;
        ctx.call = kSvcMapData;
        ctx.args = {spare, MakeMapping(os::kEnclaveDataVa + arm::kPageSize, kMapR | kMapW), 0};
        ctx.disp_page = e.thread;
        ctx.as_page = e.addrspace;
        return x.monitor.DispatchSvc(ctx).err == KomErr::kSuccess;
      };
      break;
    }
  }
  return s;
}

// Runs the site's bulk op (or its reference loop) on `m`; returns the cycles
// it charged.
uint64_t RunBulk(arm::MachineState& m, const Site& s) {
  const uint64_t before = m.cycles.total();
  MonitorOps ops(m);
  if (s.src) {
    ops.CopyPagePhys(s.dst, *s.src);
  } else {
    ops.ZeroPagePhys(s.dst);
  }
  return m.cycles.total() - before;
}

uint64_t RunReference(arm::MachineState& m, const Site& s) {
  const uint64_t before = m.cycles.total();
  if (s.src) {
    ReferenceCopyLoop(m, s.dst, *s.src);
  } else {
    ReferenceZeroLoop(m, s.dst);
  }
  return m.cycles.total() - before;
}

std::vector<word> PageWords(const arm::MachineState& m, paddr page) {
  std::vector<word> words(arm::kWordsPerPage);
  m.mem.ReadPage(page, words.data());
  return words;
}

// Arms the dirty-bypass injection for one scope.
struct DirtyBypassScope {
  DirtyBypassScope() { fuzz::Inject().dirty_bypass = true; }
  ~DirtyBypassScope() { fuzz::Inject().dirty_bypass = false; }
};

class BulkPageOpsTest : public ::testing::TestWithParam<SiteKind> {};

TEST_P(BulkPageOpsTest, MatchesPerWordLoopInMemoryAndCycles) {
  World w{64};
  const Site s = Prepare(w, GetParam());
  arm::MachineState loop = w.machine;
  arm::MachineState bulk = w.machine;
  const uint64_t loop_cycles = RunReference(loop, s);
  const uint64_t bulk_cycles = RunBulk(bulk, s);
  EXPECT_EQ(bulk_cycles, loop_cycles);
  EXPECT_EQ(bulk_cycles, s.src ? 8192u : 5120u);
  EXPECT_TRUE(bulk.mem == loop.mem);
  EXPECT_NE(PageWords(bulk, s.dst), PageWords(w.machine, s.dst)) << "the op must change the page";
}

TEST_P(BulkPageOpsTest, MonitorCallWritesWhatTheLoopWrites) {
  World w{64};
  const Site s = Prepare(w, GetParam());
  arm::MachineState loop = w.machine;
  RunReference(loop, s);
  const uint32_t gen_before = w.machine.mem.PageGen(s.dst);
  ASSERT_TRUE(s.call(w));
  EXPECT_EQ(PageWords(w.machine, s.dst), PageWords(loop, s.dst));
  // Strictly newer: a page-table footprint recorded against the old
  // contents cannot validate.
  EXPECT_GT(w.machine.mem.PageGen(s.dst), gen_before);
}

TEST_P(BulkPageOpsTest, DirtyTrackingRecordsThePage) {
  World w{64};
  const Site s = Prepare(w, GetParam());
  w.machine.mem.EnableDirtyTracking();
  arm::MachineState bulk = w.machine;
  RunBulk(bulk, s);
  EXPECT_TRUE(bulk.mem.IsDirty(s.dst));
  ASSERT_TRUE(s.call(w));
  EXPECT_TRUE(w.machine.mem.IsDirty(s.dst));
}

TEST_P(BulkPageOpsTest, DirtyBypassDropsTheRecordAsTheLoopDid) {
  World w{64};
  const Site s = Prepare(w, GetParam());
  w.machine.mem.EnableDirtyTracking();
  arm::MachineState loop = w.machine;
  arm::MachineState bulk = w.machine;
  const DirtyBypassScope bypass;
  RunReference(loop, s);
  RunBulk(bulk, s);
  EXPECT_FALSE(loop.mem.IsDirty(s.dst));
  EXPECT_FALSE(bulk.mem.IsDirty(s.dst));
  ASSERT_TRUE(s.call(w));
  EXPECT_FALSE(w.machine.mem.IsDirty(s.dst));
}

INSTANTIATE_TEST_SUITE_P(CallSites, BulkPageOpsTest,
                         ::testing::Values(SiteKind::kInitAddrspace, SiteKind::kInitL2Table,
                                           SiteKind::kMapSecure, SiteKind::kRemove,
                                           SiteKind::kMapData),
                         [](const ::testing::TestParamInfo<SiteKind>& p) {
                           switch (p.param) {
                             case SiteKind::kInitAddrspace:
                               return "InitAddrspace";
                             case SiteKind::kInitL2Table:
                               return "InitL2Table";
                             case SiteKind::kMapSecure:
                               return "MapSecure";
                             case SiteKind::kRemove:
                               return "Remove";
                             case SiteKind::kMapData:
                               return "MapData";
                           }
                           return "Unknown";
                         });

}  // namespace
}  // namespace komodo
