// Incremental extraction (DESIGN.md §12): the post-state PageDb that
// ConcreteWorld::RunStaged re-extracts from the mid state's PageDb and the
// dirty set must equal a full TryExtractPageDb of the same machine on every
// checked transition, and a failing extraction must report the same page and
// detail. The dirty-bypass injection shows the check would catch a store the
// dirty set missed.
#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/pagedb.h"
#include "src/fuzz/inject.h"
#include "src/os/world.h"
#include "src/spec/extract.h"
#include "src/verify/canon.h"
#include "src/verify/explore.h"

namespace komodo::verify {
namespace {

// Empty when the outcome RunStaged just returned agrees with a full
// extraction of the machine it left behind; otherwise what differs.
std::string Disagreement(const ConcreteWorld& world, const ConcreteWorld::Outcome& out) {
  spec::ExtractError err;
  const std::optional<spec::PageDb> full = spec::TryExtractPageDb(world.machine(), &err);
  if (!full.has_value()) {
    const std::string want = "page " + std::to_string(err.page) + ": " + err.detail;
    return out.extract_error == want
               ? ""
               : "full extraction fails with '" + want + "', incremental reports '" +
                     out.extract_error + "'";
  }
  if (!out.extract_error.empty()) {
    return "incremental extraction fails (" + out.extract_error + "), full succeeds";
  }
  const spec::PageDb& incremental = out.post.has_value() ? *out.post : *world.mid_db();
  return incremental == *full ? "" : "incremental PageDb differs from the full extraction";
}

struct Walk {
  size_t states = 0;
  size_t transitions = 0;
  size_t redecoded = 0;       // transitions whose outcome carried a new PageDb
  size_t extract_errors = 0;  // transitions whose post state does not decode
  std::vector<std::string> mismatches;
};

// Breadth-first walk from boot over the explorer's transitions, checking
// every transition of the first `max_states` distinct states. Successors are
// the machine's own extractions, so the walk also continues past states an
// injected monitor bug produced.
Walk DiffWalk(const WorldSpec& spec, size_t max_states) {
  fuzz::ScopedInject inject(spec.inject);
  ConcreteWorld world(spec);
  const std::vector<PlannedCall> plan = PlanCalls(spec.pages);
  std::set<std::string> seen{CanonicalKey(world.boot_db())};
  std::deque<std::pair<std::vector<VerifyOp>, spec::PageDb>> frontier;
  frontier.emplace_back(std::vector<VerifyOp>{}, world.boot_db());
  Walk walk;
  while (!frontier.empty() && walk.states < max_states) {
    const auto [path, db] = std::move(frontier.front());
    frontier.pop_front();
    world.PreparePath(path);
    EXPECT_TRUE(world.mid_db().has_value() && *world.mid_db() == db);
    ++walk.states;
    for (const Transition& t : TransitionsAt(plan, db)) {
      world.ResetToMid();
      const ConcreteWorld::Outcome out = world.RunStaged(t.op);
      ++walk.transitions;
      const std::string why = Disagreement(world, out);
      if (!why.empty()) {
        walk.mismatches.push_back("state " + std::to_string(walk.states) + " call " +
                                  std::to_string(t.op.call) + ": " + why);
        continue;
      }
      if (!out.extract_error.empty()) {
        ++walk.extract_errors;
        continue;
      }
      if (!out.post.has_value()) {
        continue;
      }
      ++walk.redecoded;
      if (seen.insert(CanonicalKey(*out.post)).second) {
        std::vector<VerifyOp> next = path;
        next.push_back(t.op);
        frontier.emplace_back(std::move(next), *out.post);
      }
    }
  }
  return walk;
}

WorldSpec MiniWorld() {
  WorldSpec spec;
  spec.pages = 2;
  spec.max_addrspaces = 1;
  return spec;
}

TEST(IncrementalExtract, EqualsFullOnEveryMiniWorldTransition) {
  const Walk walk = DiffWalk(MiniWorld(), 1000);
  EXPECT_TRUE(walk.mismatches.empty()) << walk.mismatches.front();
  // The walk covers the whole mini world the explorer checks (EXPERIMENTS.md).
  EXPECT_EQ(walk.states, 5u);
  EXPECT_EQ(walk.transitions, 807u);
  EXPECT_GT(walk.redecoded, 0u);
}

TEST(IncrementalExtract, EqualsFullOnFirstSmallWorldStates) {
  const Walk walk = DiffWalk(WorldSpec{}, 60);
  EXPECT_TRUE(walk.mismatches.empty()) << walk.mismatches.front();
  EXPECT_EQ(walk.states, 60u);
  EXPECT_GT(walk.redecoded, 0u);
}

TEST(IncrementalExtract, ReportsTheFullPathsErrorUnderAliasInjection) {
  WorldSpec spec;
  spec.inject = "initaddrspace-alias";
  const Walk walk = DiffWalk(spec, 20);
  EXPECT_TRUE(walk.mismatches.empty()) << walk.mismatches.front();
  EXPECT_GT(walk.extract_errors, 0u);
}

TEST(IncrementalExtract, NPagesChangeReextractsEverything) {
  os::World w(5);
  w.machine.mem.EnableDirtyTracking();
  const spec::PageDb base = spec::ExtractPageDb(w.machine);
  w.machine.mem.Write(arm::kMonitorBase + kGlobalNPages, 3);
  std::optional<spec::PageDb> changed;
  ASSERT_TRUE(spec::TryReextractPageDb(w.machine, base, &changed));
  ASSERT_TRUE(changed.has_value());
  EXPECT_EQ(changed->NPages(), 3u);
  EXPECT_EQ(*changed, spec::ExtractPageDb(w.machine));
}

// A store the dirty set misses leaves the incremental path reporting the
// mid state while the machine moved on; the walk's check must see it.
TEST(IncrementalExtract, DirtyBypassInjectionIsCaught) {
  ConcreteWorld world{WorldSpec{}};
  world.PreparePath({});
  world.ResetToMid();
  VerifyOp init;
  init.call = kSmcInitAddrspace;
  init.args = {0, 1, 0, 0};
  ConcreteWorld::Outcome out;
  {
    fuzz::ScopedInject inject("dirty-bypass");
    out = world.RunStaged(init);
  }
  ASSERT_EQ(out.impl_err, kErrSuccess);
  EXPECT_FALSE(out.post.has_value());  // no record or page looked written
  EXPECT_NE(Disagreement(world, out), "");
}

}  // namespace
}  // namespace komodo::verify
