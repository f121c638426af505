// End-to-end properties of the small-world exploration: the default world
// closes with every obligation holding, the registry's declared error sets
// are exactly the observable ones (both directions), and an injected monitor
// bug is found with a counterexample the fuzzer replays to the same verdict.
#include <gtest/gtest.h>

#include <string>

#include "src/core/call_table.h"
#include "src/fuzz/oracles.h"
#include "src/verify/explore.h"

namespace komodo::verify {
namespace {

// The small-world closure takes a few seconds, so every test that only reads
// the clean run shares one exploration.
const ExploreResult& SmallWorld() {
  static const ExploreResult r = Explore(WorldSpec{});
  return r;
}

TEST(VerifyWorldTest, SmallWorldClosesWithAllObligations) {
  const ExploreResult& r = SmallWorld();
  ASSERT_TRUE(r.harness_error.empty()) << r.harness_error;
  ASSERT_TRUE(r.ok) << (r.failure.has_value() ? r.failure->detail : "");
  EXPECT_FALSE(r.failure.has_value());
  EXPECT_GT(r.states, 100u);  // a collapsed closure means canon over-merges
  EXPECT_FALSE(r.closure_hash.empty());
}

// The registry cross-check, both directions. The explorer already fails the
// run when an observed error is undeclared; this test demands the converse
// too — every declared error is actually reachable in the small world, so a
// stale `errors` column in call_list.inc cannot survive.
TEST(VerifyWorldTest, DeclaredErrorSetsAreExactlyTheObservableOnes) {
  const ExploreResult& r = SmallWorld();
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.calls.size(), static_cast<size_t>(kNumSmcCalls + kNumSvcCalls));
  for (const CallStats& c : r.calls) {
    SCOPED_TRACE(std::string(c.is_svc ? "svc " : "smc ") + c.name);
    EXPECT_GT(c.transitions, 0u);
    EXPECT_EQ(c.errors, c.declared);
  }
}

TEST(VerifyWorldTest, InjectedBugIsFoundAndWitnessReplays) {
  WorldSpec spec;
  spec.inject = "initaddrspace-alias";
  const ExploreResult r = Explore(spec);
  ASSERT_TRUE(r.harness_error.empty()) << r.harness_error;
  EXPECT_FALSE(r.ok);
  ASSERT_TRUE(r.failure.has_value());
  // The alias bug fires on the very first InitAddrspace from boot.
  EXPECT_EQ(r.failure->depth, 1u);
  EXPECT_TRUE(r.failure->exact_replay);

  // The counterexample is a komodo-fuzz trace: it must fail under its
  // injection and pass against the clean monitor (same contract as the
  // committed corpus).
  const fuzz::Verdict with = fuzz::RunTrace(r.failure->trace, /*apply_inject=*/true);
  EXPECT_TRUE(with.failed) << "witness does not reproduce under the injection";
  // Both tools judge the step with spec::JudgeStep, so an exact replay fails
  // the fuzzer at the witness's last op with the checker's text. The wrong
  // error word is reported ahead of the post-state that does not decode.
  EXPECT_EQ(r.failure->detail, "smc 10 impl=success spec=invalid_pageno");
  EXPECT_EQ(with.failing_op, static_cast<int>(r.failure->depth) - 1);
  const std::string& judged = r.failure->detail;
  ASSERT_GE(with.detail.size(), judged.size()) << with.detail;
  EXPECT_EQ(with.detail.substr(with.detail.size() - judged.size()), judged) << with.detail;
  const fuzz::Verdict without = fuzz::RunTrace(r.failure->trace, /*apply_inject=*/false);
  EXPECT_FALSE(without.failed) << "clean monitor fails the witness: " << without.detail;
}

TEST(VerifyWorldTest, UnknownInjectIsAHarnessError) {
  WorldSpec spec;
  spec.inject = "no-such-fault";
  const ExploreResult r = Explore(spec);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.harness_error.empty());
}

}  // namespace
}  // namespace komodo::verify
