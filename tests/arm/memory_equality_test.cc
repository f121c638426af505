// Differential test for baseline-token memory equality (DESIGN.md §11).
//
// PhysMemory::operator== and FirstInsecureMismatch compare only dirty pages
// when two memories share a baseline token. Here every such answer is
// checked against plain whole-region comparisons, on pairs of worlds leased
// from one WorldPool (first-built, later-built and reset leases) after
// seeded random stores into all three regions and real monitor calls, and on
// memories that must fall back to the full compare. The dirty-bypass
// injection, which loses dirty records, must make the two disagree.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "src/arm/memory.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/pool.h"
#include "src/os/world.h"

namespace komodo::fuzz {
namespace {

using arm::kPageSize;
using arm::kWordsPerPage;
using arm::paddr;
using arm::PhysMemory;

constexpr word kPages = 24;

bool MonitorRegionEqual(const PhysMemory& a, const PhysMemory& b) {
  word pa[kWordsPerPage];
  word pb[kWordsPerPage];
  for (paddr base = arm::kMonitorBase; base < arm::kMonitorBase + arm::kMonitorSize;
       base += kPageSize) {
    a.ReadPage(base, pa);
    b.ReadPage(base, pb);
    if (!std::equal(pa, pa + kWordsPerPage, pb)) {
      return false;
    }
  }
  return true;
}

bool FullEqual(const PhysMemory& a, const PhysMemory& b) {
  return a.nsecure_pages() == b.nsecure_pages() && a.insecure_words() == b.insecure_words() &&
         a.secure_words() == b.secure_words() && MonitorRegionEqual(a, b);
}

std::optional<size_t> LinearInsecureMismatch(const PhysMemory& a, const PhysMemory& b) {
  const std::vector<word>& wa = a.insecure_words();
  const std::vector<word>& wb = b.insecure_words();
  for (size_t i = 0; i < wa.size(); ++i) {
    if (wa[i] != wb[i]) {
      return i;
    }
  }
  return std::nullopt;
}

std::string Show(std::optional<size_t> v) { return v ? std::to_string(*v) : "none"; }

// The differential check: empty if the fast answers (in both argument
// orders) match the full comparisons, else a description of the disagreement.
std::string Disagreement(const PhysMemory& a, const PhysMemory& b) {
  const bool full = FullEqual(a, b);
  std::string out;
  if ((a == b) != full || (b == a) != full) {
    out += "operator== says " + std::string(a == b ? "equal" : "different") +
           ", full compare says " + (full ? "equal" : "different") + "; ";
  }
  const std::optional<size_t> linear = LinearInsecureMismatch(a, b);
  if (a.FirstInsecureMismatch(b) != linear || b.FirstInsecureMismatch(a) != linear) {
    out += "FirstInsecureMismatch " + Show(a.FirstInsecureMismatch(b)) + " vs linear scan " +
           Show(linear) + "; ";
  }
  return out;
}

// Copies every page on which `from` and `to` differ into `to`, so the next
// steps start from equal contents again (with both dirty lists non-empty).
void Converge(const PhysMemory& from, PhysMemory& to) {
  word pf[kWordsPerPage];
  word pt[kWordsPerPage];
  auto sync = [&](paddr base) {
    from.ReadPage(base, pf);
    to.ReadPage(base, pt);
    if (!std::equal(pf, pf + kWordsPerPage, pt)) {
      to.WritePage(base, pf);
    }
  };
  for (paddr off = 0; off < arm::kInsecureSize; off += kPageSize) {
    sync(arm::kInsecureBase + off);
  }
  for (paddr off = 0; off < arm::kMonitorSize; off += kPageSize) {
    sync(arm::kMonitorBase + off);
  }
  for (paddr off = 0; off < from.nsecure_pages() * kPageSize; off += kPageSize) {
    sync(arm::kSecurePagesBase + off);
  }
}

// Seeded stores and monitor calls. A small pool of target pages makes the
// two worlds' dirty sets overlap; values are drawn from a small set so that
// pages written in both worlds are often equal again.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  paddr RandomWordAddr() {
    const word page = Below(8);
    const word offset = Below(kWordsPerPage) * arm::kWordSize;
    switch (Below(3)) {
      case 0:
        return arm::kInsecureBase + (page * 97 + 1) * kPageSize + offset;
      case 1:  // above the monitor globals and the PageDb
        return arm::kMonitorBase + (16 + page * 7) * kPageSize + offset;
      default:
        return arm::kSecurePagesBase + page * 3 * kPageSize + offset;
    }
  }
  word RandomValue() { return Below(4); }
  word Below(word n) { return static_cast<word>(rng_() % n); }

  // Applies one random step to `w`; `mirror` (if non-null) gets the same step.
  void Step(os::World& w, os::World* mirror) {
    if (Below(6) == 0) {
      const word call = 10 + Below(12);
      const word a1 = Below(kPages);
      const word a2 = Below(kPages);
      w.os.Smc(call, a1, a2, 0, 0);
      if (mirror != nullptr) {
        mirror->os.Smc(call, a1, a2, 0, 0);
      }
      return;
    }
    const paddr addr = RandomWordAddr();
    const word value = RandomValue();
    w.machine.mem.Write(addr, value);
    if (mirror != nullptr) {
      mirror->machine.mem.Write(addr, value);
    }
  }

 private:
  std::mt19937_64 rng_;
};

// Mutates `a` and `b` through a seeded mix of shared steps, one-sided steps
// (disjoint dirty sets), re-convergence and a real enclave run, checking the differential
// after every step. The steps must reach both verdicts and an insecure
// witness, or the check would be vacuous.
void Exercise(os::World& a, os::World& b, uint64_t seed) {
  Mutator m(seed);
  EXPECT_EQ(Disagreement(a.machine.mem, b.machine.mem), "") << "before any step";
  int equal = 0;
  int insecure_witness = 0;
  for (int i = 0; i < 60; ++i) {
    switch (m.Below(8)) {
      case 0:
        Converge(a.machine.mem, b.machine.mem);
        break;
      case 1:
      case 2:
        m.Step(a, &b);
        break;
      case 3:
      case 4:
        m.Step(a, nullptr);
        break;
      default:
        m.Step(b, nullptr);
        break;
    }
    ASSERT_EQ(Disagreement(a.machine.mem, b.machine.mem), "") << "seed " << seed << " step " << i;
    equal += a.machine.mem == b.machine.mem ? 1 : 0;
    insecure_witness += a.machine.mem.FirstInsecureMismatch(b.machine.mem) ? 1 : 0;
  }
  EXPECT_GT(equal, 0) << "seed " << seed;
  EXPECT_LT(equal, 60) << "seed " << seed;
  EXPECT_GT(insecure_witness, 0) << "seed " << seed;
  // A real enclave in both worlds: secure pages written by the monitor and
  // by interpreted enclave stores.
  for (os::World* w : {&a, &b}) {
    auto built = w->os.NewEnclave().Code(VictimProgram("internal-compute")).Build();
    if (built.ok()) {
      const os::EnclaveHandle e = std::move(built).value();
      (void)w->os.Enter(e.thread, 5, 0, 0);
    }
    ASSERT_EQ(Disagreement(a.machine.mem, b.machine.mem), "") << "after enclave run";
  }
}

TEST(FastEquality, FirstBuiltAndLaterBuiltLeasesShareTheBaseline) {
  WorldPool pool;
  WorldPool::Lease first = pool.Acquire(kPages);
  WorldPool::Lease second = pool.Acquire(kPages);
  WorldPool::Lease third = pool.Acquire(kPages);
  EXPECT_EQ(pool.stats().constructions, 3u);
  const PhysMemory& m1 = first.world().machine.mem;
  EXPECT_TRUE(m1.SharesBaseline(second.world().machine.mem));
  EXPECT_TRUE(m1.SharesBaseline(third.world().machine.mem));
  Exercise(first.world(), second.world(), 1);
  Exercise(second.world(), third.world(), 2);
}

TEST(FastEquality, ResetLeasesShareTheBaseline) {
  WorldPool pool;
  for (uint64_t round = 0; round < 4; ++round) {
    WorldPool::Lease a = pool.Acquire(kPages);
    WorldPool::Lease b = pool.Acquire(kPages);
    ASSERT_TRUE(a.world().machine.mem.SharesBaseline(b.world().machine.mem)) << round;
    Exercise(a.world(), b.world(), 10 + round);
  }
  EXPECT_EQ(pool.stats().constructions, 2u);
  EXPECT_EQ(pool.stats().resets, 6u);
}

TEST(FastEquality, EveryPairOfLeasesFromOneBucketTakesTheFastPath) {
  WorldPool pool;
  std::vector<WorldPool::Lease> leases;
  for (int round = 0; round < 3; ++round) {
    leases.clear();  // return the worlds; the next round resets them
    for (int i = 0; i < 4; ++i) {
      leases.push_back(pool.Acquire(kPages));
      Mutator(round * 10 + i).Step(leases.back().world(), nullptr);
    }
    for (size_t i = 0; i < leases.size(); ++i) {
      for (size_t j = 0; j < leases.size(); ++j) {
        EXPECT_TRUE(leases[i].world().machine.mem.SharesBaseline(leases[j].world().machine.mem))
            << "round " << round << " leases " << i << "," << j;
      }
    }
  }
  // Another geometry is another bucket with its own baseline.
  WorldPool::Lease other = pool.Acquire(kPages + 8);
  EXPECT_FALSE(other.world().machine.mem.SharesBaseline(leases[0].world().machine.mem));
}

TEST(FastEquality, MemoriesWithoutASharedBaselineTakeTheFullPath) {
  // Fresh, unpooled worlds are not even tracked.
  os::World a(kPages, FuzzMonitorConfig());
  os::World b(kPages, FuzzMonitorConfig());
  EXPECT_FALSE(a.machine.mem.SharesBaseline(b.machine.mem));
  Exercise(a, b, 20);

  // Tracking alone gives each memory its own baseline.
  os::World c(kPages, FuzzMonitorConfig());
  os::World d(kPages, FuzzMonitorConfig());
  c.machine.mem.EnableDirtyTracking();
  d.machine.mem.EnableDirtyTracking();
  EXPECT_FALSE(c.machine.mem.SharesBaseline(d.machine.mem));
  Exercise(c, d, 21);
}

TEST(FastEquality, ResetFromADirtySnapshotDropsTheBaseline) {
  os::World w(kPages, FuzzMonitorConfig());
  w.machine.mem.EnableDirtyTracking();
  const PhysMemory clean = w.machine.mem;
  ASSERT_TRUE(w.machine.mem.SharesBaseline(clean));

  // A snapshot taken after stores carries a non-empty dirty list: it is not
  // the baseline, so resetting to it cannot vouch for the untouched pages.
  EXPECT_EQ(w.os.InitAddrspace(0, 1).err, 0u);
  const PhysMemory dirty_snapshot = w.machine.mem;
  ASSERT_FALSE(dirty_snapshot.dirty_pages().empty());
  w.machine.mem.Write(arm::kInsecureBase + 5 * kPageSize, 7);
  w.machine.mem.ResetTo(dirty_snapshot);
  EXPECT_FALSE(w.machine.mem.SharesBaseline(dirty_snapshot));
  EXPECT_FALSE(w.machine.mem.SharesBaseline(clean));
  EXPECT_EQ(Disagreement(w.machine.mem, clean), "");
  EXPECT_EQ(Disagreement(w.machine.mem, dirty_snapshot), "");

  // Resetting to the clean baseline keeps the token.
  PhysMemory v = clean;
  v.Write(arm::kMonitorBase, 1);
  v.ResetTo(clean);
  EXPECT_TRUE(v.SharesBaseline(clean));
  EXPECT_EQ(Disagreement(v, clean), "");
}

TEST(FastEquality, AdoptionRequiresEqualContents) {
  PhysMemory base(kPages);
  base.EnableDirtyTracking();
  PhysMemory other(kPages);
  other.Write(arm::kSecurePagesBase + 3 * kPageSize, 9);
  other.EnableDirtyTracking();
  EXPECT_FALSE(other.AdoptBaseline(base));
  EXPECT_FALSE(other.SharesBaseline(base));
  PhysMemory same(kPages);
  same.EnableDirtyTracking();
  EXPECT_TRUE(same.AdoptBaseline(base));
  EXPECT_TRUE(same.SharesBaseline(base));
}

TEST(FastEquality, DirtyBypassInjectionIsCaught) {
  WorldPool pool;
  WorldPool::Lease a = pool.Acquire(kPages);
  WorldPool::Lease b = pool.Acquire(kPages);
  ASSERT_EQ(Disagreement(a.world().machine.mem, b.world().machine.mem), "");
  {
    ScopedInject inject("dirty-bypass");
    a.world().os.WriteInsecure(3, 17, 0xbadc0de);  // a poke the dirty list misses
  }
  const PhysMemory& ma = a.world().machine.mem;
  const PhysMemory& mb = b.world().machine.mem;
  EXPECT_TRUE(ma == mb);  // the fast compare is fooled
  EXPECT_FALSE(FullEqual(ma, mb));
  EXPECT_NE(Disagreement(ma, mb), "");
}

}  // namespace
}  // namespace komodo::fuzz
