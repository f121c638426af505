// Tests for the fuzzing subsystem itself (DESIGN.md §10): trace round-trip,
// generator and campaign determinism, clean-monitor campaigns, and the
// shrinker's contract that a minimized witness (a) still fails, (b) is small,
// and (c) passes once its fault injection is disarmed.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "src/fuzz/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/shrink.h"
#include "src/fuzz/trace.h"

namespace komodo::fuzz {
namespace {

TEST(TraceFormat, RoundTripsEveryOpKind) {
  Trace t;
  t.oracle = "noninterference";
  t.seed = 0xdeadbeefcafe1234ull;
  t.pages = 64;
  t.inject = "skip-scratch-clear";
  t.victim = "spin-scratch";
  t.secrets[0] = 0x11223344;
  t.secrets[1] = 0x55667788;
  t.ops.push_back({OpKind::kPoke, {3, 17, 0xe3a01005, 0, 0}});
  t.ops.push_back({OpKind::kSmc, {10, 0, 1, 2, 3}});
  t.ops.push_back({OpKind::kSvc, {11, 0x8000, 2, 3, 0}});
  t.ops.push_back({OpKind::kEnter, {0, 7, 8, 9, 0}});
  t.ops.push_back({OpKind::kResume, {0, 0, 0, 0, 0}});

  const auto parsed = Trace::Parse(t.Format());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Format(), t.Format());
  EXPECT_EQ(parsed->Hash(), t.Hash());
  EXPECT_EQ(parsed->ops.size(), t.ops.size());
  EXPECT_EQ(parsed->CallCount(), 4u);  // everything but the poke
}

TEST(TraceFormat, SkipsCommentsAndRejectsGarbage) {
  const std::string text =
      "# a committed witness carries a comment header\n"
      "\n"
      "komodo-fuzz-trace v1\n"
      "oracle invariants\n"
      "seed 7\n"
      "# comments inside the body too\n"
      "smc 1 0x0 0x0 0x0 0x0\n"
      "end\n";
  const auto t = Trace::Parse(text);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->oracle, "invariants");
  ASSERT_EQ(t->ops.size(), 1u);

  EXPECT_FALSE(Trace::Parse("not a trace\n").has_value());
  EXPECT_FALSE(Trace::Parse("komodo-fuzz-trace v1\noracle x\nwat 1 2\nend\n").has_value());
  // A trace without the end marker is truncated, not replayable.
  EXPECT_FALSE(Trace::Parse("komodo-fuzz-trace v1\noracle x\nseed 1\n").has_value());
}

// Parse(Format(t)) == t, field for field, for generated traces of every
// oracle (with and without an injection).
TEST(TraceFormat, ParseInvertsFormatForGeneratedTraces) {
  for (const std::string& oracle : OracleNames()) {
    for (uint64_t seed = 0; seed < 40; ++seed) {
      Trace t = GenerateTrace(oracle, seed * 0x9e3779b97f4a7c15ull, 5 + seed % 50);
      if (seed % 3 == 0) {
        t.inject = kInjectNames[seed % std::size(kInjectNames)];
      }
      std::string error;
      const auto parsed = Trace::Parse(t.Format(), &error);
      ASSERT_TRUE(parsed.has_value()) << oracle << " seed " << seed << ": " << error;
      EXPECT_TRUE(*parsed == t) << oracle << " seed " << seed;
    }
  }
}

// Every malformed line is rejected with its line number, never coerced.
TEST(TraceFormat, StrictParsingRejectsMalformedLinesWithLineNumbers) {
  const std::string head = "komodo-fuzz-trace v1\noracle noninterference\n";
  const struct {
    const char* body;
    const char* error;
  } cases[] = {
      {"seed banana\nend\n", "line 3: seed: expected an unsigned 64-bit integer, got 'banana'"},
      {"seed 18446744073709551616\nend\n",
       "line 3: seed: expected an unsigned 64-bit integer, got '18446744073709551616'"},
      {"pages 0x100000040\nend\n",
       "line 3: pages: expected an unsigned 32-bit integer, got '0x100000040'"},
      {"pages 0\nend\n", "line 3: pages must be in [1, 1024], got 0"},
      {"secrets -1 2\nend\n", "line 3: secrets: expected an unsigned 32-bit integer, got '-1'"},
      {"secrets 1\nend\n", "line 3: 'secrets' takes 2 operand(s), got 1"},
      {"seed 1\nenter 0x0 0x0 0x0 0x0\nend\n", "line 4: 'enter' takes 3 operand(s), got 4"},
      {"smc 1 0x0 0x0 0x0 0x0 junk\nend\n", "line 3: 'smc' takes 5 operand(s), got 6"},
      {"poke 1 2 3 4\nend\n", "line 3: 'poke' takes 3 operand(s), got 4"},
      {"svc 1 2 3\nend\n", "line 3: 'svc' takes 4 operand(s), got 3"},
      {"resume now\nend\n", "line 3: 'resume' takes 0 operand(s), got 1"},
      {"oracle interp\nend\n", "line 3: duplicate 'oracle' line"},
      {"victim a b\nend\n", "line 3: 'victim' takes 1 operand(s), got 2"},
      {"smc 1 2 3 4 5x\nend\n", "line 3: smc: expected an unsigned 32-bit integer, got '5x'"},
      {"wat 1 2\nend\n", "line 3: unknown line 'wat'"},
      {"end now\n", "line 3: 'end' takes 0 operand(s), got 1"},
      {"end\nsmc 1 0x0 0x0 0x0 0x0\n", "line 4: unexpected 'smc' after 'end'"},
      {"seed 1\n", "line 3: missing 'end' line (truncated trace)"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(Trace::Parse(head + c.body, &error).has_value()) << c.body;
    EXPECT_EQ(error, c.error) << c.body;
  }
  std::string error;
  EXPECT_FALSE(Trace::Parse("# header\nnot a trace\n", &error).has_value());
  EXPECT_EQ(error, "line 2: expected 'komodo-fuzz-trace v1'");
  EXPECT_FALSE(Trace::Parse("komodo-fuzz-trace v1\nseed 1\nend\n", &error).has_value());
  EXPECT_EQ(error, "line 3: missing 'oracle' line");
}

TEST(Generator, SameSeedSameTrace) {
  for (const std::string& oracle : OracleNames()) {
    const Trace a = GenerateTrace(oracle, 99, 40);
    const Trace b = GenerateTrace(oracle, 99, 40);
    EXPECT_EQ(a.Hash(), b.Hash()) << oracle;
    const Trace c = GenerateTrace(oracle, 100, 40);
    EXPECT_NE(a.Hash(), c.Hash()) << oracle;
  }
}

TEST(Generator, VictimCatalogAssembles) {
  for (const char* name : kVictimNames) {
    EXPECT_FALSE(VictimProgram(name).empty()) << name;
  }
  EXPECT_TRUE(VictimProgram("no-such-victim").empty());
  EXPECT_TRUE(VictimWantsWritableCode("self-modify"));
  EXPECT_FALSE(VictimWantsWritableCode("spin-scratch"));
}

TEST(Campaign, SameSeedSameHash) {
  CampaignOptions opts;
  opts.seed = 1234;
  opts.calls = 300;
  opts.trace_len = 60;
  const CampaignResult a = RunCampaign(opts);
  const CampaignResult b = RunCampaign(opts);
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_FALSE(a.failed);
  EXPECT_FALSE(b.failed);
  ASSERT_EQ(a.stats.size(), OracleNames().size());
  for (size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_EQ(a.stats[i].calls, b.stats[i].calls) << a.stats[i].oracle;
    EXPECT_GE(a.stats[i].calls, opts.calls) << a.stats[i].oracle;
  }
}

TEST(Campaign, CleanMonitorSurvivesEveryOracle) {
  // A per-oracle smoke run of the unbroken monitor; any failure here is a
  // real divergence and should be shrunk + committed to tests/corpus/.
  for (const std::string& oracle : OracleNames()) {
    CampaignOptions opts;
    opts.seed = 20260807;
    opts.calls = 200;
    opts.trace_len = 50;
    opts.oracles = {oracle};
    const CampaignResult r = RunCampaign(opts);
    EXPECT_FALSE(r.failed) << oracle << ": " << r.verdict.detail << "\n"
                           << r.original.Format();
  }
}

// For each injection: pad its corpus-style witness with noise, confirm the
// noisy trace fails, shrink it, and check the shrinker's three guarantees.
struct ShrinkCase {
  const char* inject;
  Trace noisy;
};

Trace NoisyFrom(const std::string& oracle, const std::string& inject, const std::string& victim,
                std::vector<TraceOp> core) {
  Trace t;
  t.oracle = oracle;
  t.seed = 4242;
  t.pages = victim.empty() ? 24 : 64;
  t.inject = inject;
  t.victim = victim;
  t.secrets[0] = 0x1111;
  t.secrets[1] = 0x2222;
  // Harmless noise around the core: insecure pokes and GetPhysPages queries.
  t.ops.push_back({OpKind::kPoke, {2, 5, 0xe3a00001, 0, 0}});
  t.ops.push_back({OpKind::kSmc, {2, 0, 0, 0, 0}});
  for (const TraceOp& op : core) {
    t.ops.push_back(op);
  }
  t.ops.push_back({OpKind::kSmc, {2, 0, 0, 0, 0}});
  t.ops.push_back({OpKind::kPoke, {3, 9, 0xe3a00002, 0, 0}});
  return t;
}

TEST(Shrinker, MinimizedWitnessStillFailsAndIsInjectionCaused) {
  std::vector<ShrinkCase> cases;
  cases.push_back({"initaddrspace-alias",
                   NoisyFrom("refinement", "initaddrspace-alias", "",
                             {{OpKind::kSmc, {10, 14, 14, 0, 0}}})});
  cases.push_back({"remove-skip-refcount",
                   NoisyFrom("invariants", "remove-skip-refcount", "",
                             {{OpKind::kSvc, {0, 0, 0, 0, 0}},
                              {OpKind::kSmc, {20, 0, 0, 0, 0}}})});
  cases.push_back({"skip-scratch-clear",
                   NoisyFrom("noninterference", "skip-scratch-clear", "spin-scratch",
                             {{OpKind::kEnter, {0, 0, 0, 0, 0}}})});

  for (ShrinkCase& c : cases) {
    SCOPED_TRACE(c.inject);
    const Verdict noisy = RunTrace(c.noisy);
    ASSERT_TRUE(noisy.failed) << "noisy trace must fail: " << c.noisy.Format();

    ShrinkStats stats;
    const Trace min = ShrinkTrace(c.noisy, [](const Trace& t) { return RunTrace(t); }, &stats);
    EXPECT_LT(min.ops.size(), c.noisy.ops.size());
    EXPECT_LE(min.CallCount(), 10u);  // the acceptance bound
    EXPECT_TRUE(RunTrace(min).failed) << min.Format();

    // Same witness, injection disarmed: the clean monitor must pass it.
    Trace clean = min;
    clean.inject.clear();
    EXPECT_FALSE(RunTrace(clean).failed) << clean.Format();
  }
}

TEST(Shrinker, NonFailingTraceReturnedUnchanged) {
  Trace t;
  t.oracle = "invariants";
  t.seed = 1;
  t.ops.push_back({OpKind::kSmc, {2, 0, 0, 0, 0}});
  ShrinkStats stats;
  const Trace out = ShrinkTrace(t, [](const Trace& tr) { return RunTrace(tr); }, &stats);
  EXPECT_EQ(out.Format(), t.Format());
  EXPECT_EQ(stats.evaluations, 1u);
}

TEST(Injection, RegistryRoundTrip) {
  for (const char* name : kInjectNames) {
    EXPECT_TRUE(SetInjectByName(name)) << name;
  }
  EXPECT_TRUE(SetInjectByName("none"));
  EXPECT_FALSE(SetInjectByName("no-such-injection"));
  // Flags must all be off again for the rest of the process.
  EXPECT_FALSE(Inject().initaddrspace_alias);
  EXPECT_FALSE(Inject().remove_skip_refcount);
  EXPECT_FALSE(Inject().skip_scratch_clear);
  EXPECT_FALSE(Inject().dirty_bypass);
}

}  // namespace
}  // namespace komodo::fuzz
