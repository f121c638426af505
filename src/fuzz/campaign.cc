#include "src/fuzz/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "src/crypto/sha256.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/mutate.h"
#include "src/fuzz/pool.h"

namespace komodo::fuzz {

namespace {

void HashString(crypto::Sha256& h, const std::string& s) {
  h.Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string VerdictLine(const Verdict& v) {
  std::ostringstream out;
  out << "failed=" << (v.failed ? 1 : 0) << " op=" << v.failing_op << " " << v.detail << "\n";
  return out.str();
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// CPU time of the calling thread — the per-shard cost figure that stays
// comparable whether shards timeslice one core or spread over eight.
double ThreadCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) {
    return 0.0;
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

using Clock = std::chrono::steady_clock;

// One (oracle, shard) work unit; tasks are indexed in canonical order
// (oracle-major, shard-minor), which is also the hash-merge order.
struct ShardTask {
  size_t oracle_idx = 0;
  uint32_t shard = 0;
  uint64_t call_budget = 0;
};

struct ShardFailure {
  uint64_t trace_index = 0;  // k within the shard's stream
  Trace trace;
  Verdict verdict;
};

// A trace that discovered coverage its shard had not seen: carried to the
// round barrier with its full key set, so the canonical merge can recompute
// the gain against the true global map.
struct EvolveCandidate {
  uint64_t k = 0;
  Trace trace;
  CoverageMap keys;
};

struct ShardOutcome {
  uint64_t traces = 0;
  uint64_t calls = 0;
  double cpu_seconds = 0.0;
  double done_at = 0.0;  // wall seconds since campaign start at completion
  std::string digest;    // SHA-256 hex over this shard's traces + verdicts
  std::optional<ShardFailure> failure;
  CoverageMap cover;     // blind + measure_coverage: keys seen (never hashed)
  std::vector<EvolveCandidate> candidates;  // evolve: local-gain traces, k order
};

// The canonical task list for one generation of work: oracle-major,
// shard-minor. The call budget splits as evenly as the integer division
// allows, remainder to the lowest shard indices, so the split — and thus the
// hash — depends only on (calls, shards).
std::vector<ShardTask> MakeTasks(size_t noracles, uint64_t calls, uint32_t shards) {
  std::vector<ShardTask> tasks;
  for (size_t o = 0; o < noracles; ++o) {
    const uint64_t base = calls / shards;
    const uint64_t remainder = calls % shards;
    for (uint32_t s = 0; s < shards; ++s) {
      tasks.push_back({o, s, base + (s < remainder ? 1 : 0)});
    }
  }
  return tasks;
}

// Runs one blind shard to its call budget (or its first failure), hashing
// every generated trace and verdict into the shard digest. With
// measure_coverage, each run additionally harvests its coverage keys into
// out.cover — informational only, never hashed, so the v2 campaign hash is
// byte-identical with the measurement on or off.
ShardOutcome RunShard(const CampaignOptions& opts, const std::string& oracle,
                      const ShardTask& task, WorldPool& pool, Clock::time_point campaign_start) {
  ShardOutcome out;
  const double cpu_begin = ThreadCpuSeconds();
  crypto::Sha256 hash;
  for (uint64_t k = 0; out.calls < task.call_budget; ++k) {
    Trace t = GenerateTrace(oracle, ShardTraceSeed(opts.seed, task.shard, k), opts.trace_len);
    t.inject = opts.inject;
    const Verdict v =
        RunTrace(t, /*apply_inject=*/true, &pool, opts.measure_coverage ? &out.cover : nullptr);
    ++out.traces;
    out.calls += t.CallCount();
    HashString(hash, t.Format());
    HashString(hash, VerdictLine(v));
    if (v.failed) {
      out.failure = ShardFailure{k, std::move(t), v};
      break;
    }
  }
  out.digest = crypto::DigestToHex(hash.Finalize());
  out.cpu_seconds = ThreadCpuSeconds() - cpu_begin;
  out.done_at = std::chrono::duration<double>(Clock::now() - campaign_start).count();
  return out;
}

// Runs one evolve shard of one round. Candidates come from the shard's seed
// stream: a fresh trace while the corpus is empty (or on a deterministic 1/8
// refresh draw), otherwise a mutation of the round-start corpus snapshot.
// Gains are measured against a shard-local copy of the round-start coverage
// (plus the shard's own discoveries), so the shard never reads shared state;
// every local discovery travels to the barrier with its full key set. The
// shard digest additionally pins each run's coverage size and local gain.
ShardOutcome RunEvolveShard(const CampaignOptions& opts, const std::string& oracle,
                            const ShardTask& task, uint32_t round, const CoverageMap& snapshot,
                            const std::vector<const Trace*>& parents, WorldPool& pool,
                            Clock::time_point campaign_start) {
  ShardOutcome out;
  const double cpu_begin = ThreadCpuSeconds();
  crypto::Sha256 hash;
  CoverageMap seen = snapshot;
  const uint64_t round_seed = EvolveRoundSeed(opts.seed, round);
  for (uint64_t k = 0; out.calls < task.call_budget; ++k) {
    const uint64_t trace_seed = ShardTraceSeed(round_seed, task.shard, k);
    Trace t;
    if (parents.empty() || SplitMix64(trace_seed ^ 0x65766f6c76653a31ull) % 8 == 0) {
      t = GenerateTrace(oracle, trace_seed, opts.trace_len);
    } else {
      // Mutations may grow past the base length, doubling the cap each
      // round: extensions of already-interesting traces buy *depth* —
      // structural features (refcounts, table fill, page populations) a
      // fresh trace of trace_len ops can never produce. Shallow coverage
      // saturates within the first round, so later rounds spend their calls
      // where the marginal novelty is: deeper in the state space. The cap
      // compounds exponentially because an extension replays its parent as
      // a prefix — linear growth would spend most of the budget
      // re-executing known ops, exponential growth keeps the replayed
      // prefix a constant fraction of each lineage. The cap is additionally
      // clamped so one mutant cannot dwarf the cell's remaining call budget
      // (roughly half of a trace's ops are calls): unbounded depth at small
      // budgets makes evolve overshoot blind's executed calls by 50%+, which
      // would invalidate the equal-budget comparison.
      const uint64_t remaining = task.call_budget - out.calls;
      const size_t cap = std::min<size_t>(opts.trace_len << std::min(round, 3u),
                                          std::max<uint64_t>(opts.trace_len, 2 * remaining));
      t = MutateTrace(parents, trace_seed, cap);
    }
    t.inject = opts.inject;
    CoverageMap got;
    const Verdict v = RunTrace(t, /*apply_inject=*/true, &pool, &got);
    ++out.traces;
    out.calls += t.CallCount();
    const size_t gain = seen.Merge(got);
    HashString(hash, t.Format());
    HashString(hash, VerdictLine(v));
    std::ostringstream cover_line;
    cover_line << "cover total=" << got.size() << " new=" << gain << "\n";
    HashString(hash, cover_line.str());
    if (v.failed) {
      out.failure = ShardFailure{k, std::move(t), v};
      break;
    }
    if (gain > 0) {
      out.candidates.push_back({k, std::move(t), std::move(got)});
    }
  }
  out.digest = crypto::DigestToHex(hash.Finalize());
  out.cpu_seconds = ThreadCpuSeconds() - cpu_begin;
  out.done_at = std::chrono::duration<double>(Clock::now() - campaign_start).count();
  return out;
}

// Executes `tasks` with the requested parallelism. `pools` persists across
// calls (rounds) so pooled worlds stay warm; pools[w] is only ever touched by
// the worker holding index w, and successive rounds hand a pool to its next
// worker through thread join/spawn (a synchronization point), so every pool
// — and the worlds, monitors and tracers inside — stays effectively
// thread-confined.
void ExecuteTasks(const std::vector<ShardTask>& tasks, unsigned jobs,
                  std::vector<std::unique_ptr<WorldPool>>& pools,
                  const std::function<ShardOutcome(const ShardTask&, WorldPool&)>& run,
                  std::vector<ShardOutcome>& outcomes) {
  if (jobs <= 1) {
    for (size_t i = 0; i < tasks.size(); ++i) {
      outcomes[i] = run(tasks[i], *pools[0]);
    }
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(jobs);
  for (unsigned w = 0; w < jobs; ++w) {
    workers.emplace_back([&, w]() {
      for (size_t i = next.fetch_add(1); i < tasks.size(); i = next.fetch_add(1)) {
        outcomes[i] = run(tasks[i], *pools[w]);
      }
    });
  }
  for (std::thread& t : workers) {
    t.join();
  }
}

// Folds one outcome into the per-oracle stats (allocating the oracle's row
// when its first shard arrives) and the campaign hash.
void MergeStatsAndHash(const std::vector<std::string>& oracles, const ShardTask& task,
                       const ShardOutcome& out, const std::string& line_prefix,
                       std::vector<OracleStats>& stats, crypto::Sha256& hash) {
  OracleStats& st = stats[task.oracle_idx];
  st.oracle = oracles[task.oracle_idx];
  st.traces += out.traces;
  st.calls += out.calls;
  st.cpu_seconds += out.cpu_seconds;
  st.seconds = std::max(st.seconds, out.done_at);
  std::ostringstream line;
  line << line_prefix << "oracle=" << oracles[task.oracle_idx] << " shard=" << task.shard
       << " traces=" << out.traces << " calls=" << out.calls << " digest=" << out.digest
       << "\n";
  HashString(hash, line.str());
}

// Shrinks and reports the canonically first failure (shared by both modes).
void ReportFailure(const CampaignOptions& opts, const ShardFailure& failure,
                   const std::function<void(const std::string&)>& log, CampaignResult& result) {
  result.failed = true;
  result.original = failure.trace;
  result.verdict = failure.verdict;
  if (log) {
    std::ostringstream out;
    out << "FAIL oracle=" << result.original.oracle << " trace-seed=" << result.original.seed
        << " " << result.verdict.detail;
    log(out.str());
  }
  if (opts.shrink) {
    WorldPool shrink_pool;
    result.witness = ShrinkTrace(
        result.original, [&](const Trace& c) { return RunTrace(c, true, &shrink_pool); },
        &result.shrink);
    if (log) {
      std::ostringstream out;
      out << "shrunk " << result.shrink.ops_before << " -> " << result.shrink.ops_after
          << " ops (" << result.witness.CallCount() << " calls, " << result.shrink.evaluations
          << " oracle runs)";
      log(out.str());
    }
  } else {
    result.witness = result.original;
  }
}

unsigned ResolveJobs(const CampaignOptions& opts, size_t ntasks) {
  unsigned jobs = opts.jobs > 0 ? static_cast<unsigned>(opts.jobs)
                                : std::max(1u, std::thread::hardware_concurrency());
  return std::min<unsigned>(jobs, static_cast<unsigned>(ntasks));
}

CampaignResult RunBlindCampaign(const CampaignOptions& opts,
                                const std::function<void(const std::string&)>& log) {
  CampaignResult result;
  const Clock::time_point start = Clock::now();
  std::vector<std::string> oracles = opts.oracles;
  if (oracles.empty()) {
    oracles = OracleNames();
  }
  const uint32_t shards = opts.shards == 0 ? 1 : opts.shards;
  const std::vector<ShardTask> tasks = MakeTasks(oracles.size(), opts.calls, shards);
  std::vector<ShardOutcome> outcomes(tasks.size());

  const unsigned jobs = ResolveJobs(opts, tasks.size());
  std::vector<std::unique_ptr<WorldPool>> pools(std::max(1u, jobs));
  for (auto& p : pools) {
    p = std::make_unique<WorldPool>();
  }
  ExecuteTasks(
      tasks, jobs, pools,
      [&](const ShardTask& task, WorldPool& pool) {
        return RunShard(opts, oracles[task.oracle_idx], task, pool, start);
      },
      outcomes);

  for (const auto& p : pools) {
    result.worlds_built += p->stats().constructions;
    result.worlds_reused += p->stats().resets;
    result.pages_restored += p->stats().pages_restored;
  }

  // Canonical merge: per-oracle stats, the campaign hash over the per-shard
  // digests in task order, and the canonically first failure.
  crypto::Sha256 hash;
  {
    std::ostringstream header;
    header << "komodo-fuzz-campaign-hash v2 shards=" << shards << "\n";
    HashString(hash, header.str());
  }
  result.stats.resize(oracles.size());
  std::vector<CoverageMap> covers(oracles.size());
  const ShardFailure* first_failure = nullptr;
  for (size_t i = 0; i < tasks.size(); ++i) {
    MergeStatsAndHash(oracles, tasks[i], outcomes[i], "", result.stats, hash);
    if (opts.measure_coverage) {
      covers[tasks[i].oracle_idx].Merge(outcomes[i].cover);
    }
    if (first_failure == nullptr && outcomes[i].failure.has_value()) {
      first_failure = &*outcomes[i].failure;  // task order is canonical order
    }
  }
  result.hash = crypto::DigestToHex(hash.Finalize());
  if (opts.measure_coverage) {
    for (size_t o = 0; o < oracles.size(); ++o) {
      result.stats[o].coverage_keys = covers[o].size();
      result.coverage_keys += covers[o].size();
    }
  }

  if (log) {
    for (const OracleStats& st : result.stats) {
      std::ostringstream out;
      out << "oracle " << st.oracle << ": " << st.calls << " calls in " << st.traces
          << " traces, " << st.cpu_seconds << "s cpu";
      log(out.str());
    }
  }
  if (first_failure != nullptr) {
    ReportFailure(opts, *first_failure, log, result);
  }
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

// Evolve mode: `rounds` synchronous generations over the same sharded
// skeleton. All shared state (per-oracle coverage map + corpus) is read-only
// during a round and advances only at the round barrier, in canonical task
// order — the determinism argument is in DESIGN.md §15.
CampaignResult RunEvolveCampaign(const CampaignOptions& opts,
                                 const std::function<void(const std::string&)>& log) {
  CampaignResult result;
  const Clock::time_point start = Clock::now();
  std::vector<std::string> oracles = opts.oracles;
  if (oracles.empty()) {
    oracles = OracleNames();
  }
  const uint32_t shards = opts.shards == 0 ? 1 : opts.shards;
  const uint32_t rounds = opts.rounds == 0 ? 1 : opts.rounds;

  crypto::Sha256 hash;
  {
    std::ostringstream header;
    header << "komodo-fuzz-campaign-hash v3 mode=evolve shards=" << shards
           << " rounds=" << rounds << " max-corpus=" << opts.max_corpus << "\n";
    HashString(hash, header.str());
  }

  result.stats.resize(oracles.size());
  std::vector<CoverageMap> cover(oracles.size());
  std::vector<Corpus> corpora(oracles.size());
  std::vector<uint64_t> next_seq(oracles.size(), 0);
  std::optional<ShardFailure> first_failure;

  // Pools persist across rounds so pooled worlds stay warm (see ExecuteTasks
  // for the thread-confinement argument).
  const unsigned jobs = ResolveJobs(opts, oracles.size() * shards);
  std::vector<std::unique_ptr<WorldPool>> pools(std::max(1u, jobs));
  for (auto& p : pools) {
    p = std::make_unique<WorldPool>();
  }

  // Per-(oracle, shard) call ledger. Each shard owns the same total budget a
  // blind shard would (calls/shards, remainder to the low indices); round r
  // lets it spend up to the cumulative target total·(r+1)/rounds. A shard
  // whose last trace overshot one round's allowance runs correspondingly
  // less in the next, so — like blind — a shard overshoots its *total*
  // budget by at most one trace, and equal --calls means equal executed
  // calls (evolve is never gifted extra budget by its round structure).
  // (The uniform split beats front- or back-loaded schedules empirically:
  // later rounds need depth budget, but shallow breadth keys come from fresh
  // trace diversity, which every round must keep contributing.)
  const auto shard_total = [&](uint32_t s) {
    return opts.calls / shards + (s < opts.calls % shards ? 1 : 0);
  };
  std::vector<std::vector<uint64_t>> spent(oracles.size(),
                                           std::vector<uint64_t>(shards, 0));

  for (uint32_t r = 0; r < rounds; ++r) {
    std::vector<ShardTask> tasks;
    for (size_t o = 0; o < oracles.size(); ++o) {
      for (uint32_t s = 0; s < shards; ++s) {
        const uint64_t target = shard_total(s) * (r + 1) / rounds;
        const uint64_t used = spent[o][s];
        tasks.push_back({o, s, target > used ? target - used : 0});
      }
    }
    std::vector<ShardOutcome> outcomes(tasks.size());

    // Round-start snapshots: shards read these, never the live maps.
    std::vector<std::vector<const Trace*>> parents(oracles.size());
    for (size_t o = 0; o < oracles.size(); ++o) {
      parents[o] = corpora[o].Traces();
    }
    ExecuteTasks(
        tasks, jobs, pools,
        [&](const ShardTask& task, WorldPool& pool) {
          return RunEvolveShard(opts, oracles[task.oracle_idx], task, r,
                                cover[task.oracle_idx], parents[task.oracle_idx], pool, start);
        },
        outcomes);

    // Round barrier: canonical merge. Recomputing each candidate's gain
    // against the true global map (updated as we go, in task order) makes the
    // admitted corpus independent of which worker ran which shard.
    std::ostringstream round_prefix;
    round_prefix << "round=" << r << " ";
    for (size_t i = 0; i < tasks.size(); ++i) {
      const ShardTask& task = tasks[i];
      ShardOutcome& out = outcomes[i];
      MergeStatsAndHash(oracles, task, out, round_prefix.str(), result.stats, hash);
      spent[task.oracle_idx][task.shard] += out.calls;
      if (!first_failure.has_value() && out.failure.has_value()) {
        first_failure = std::move(out.failure);  // (round, task) order is canonical
      }
      for (EvolveCandidate& cand : out.candidates) {
        const size_t gain = cover[task.oracle_idx].Merge(cand.keys);
        if (gain > 0) {
          corpora[task.oracle_idx].Add(std::move(cand.trace), gain, r,
                                       next_seq[task.oracle_idx]++);
        }
      }
    }
    uint64_t total_cover = 0;
    uint64_t total_corpus = 0;
    for (size_t o = 0; o < oracles.size(); ++o) {
      corpora[o].Trim(opts.max_corpus);
      total_cover += cover[o].size();
      total_corpus += corpora[o].size();
    }
    result.coverage_curve.push_back(total_cover);
    if (log) {
      std::ostringstream out;
      out << "evolve round " << r << ": coverage-keys=" << total_cover
          << " corpus=" << total_corpus;
      log(out.str());
    }
  }

  // Final corpus + coverage lines pin the evolved state in the hash.
  for (size_t o = 0; o < oracles.size(); ++o) {
    result.stats[o].oracle = oracles[o];  // zero-round edge: rows still labelled
    result.stats[o].coverage_keys = cover[o].size();
    result.stats[o].corpus_entries = corpora[o].size();
    result.coverage_keys += cover[o].size();
    std::ostringstream line;
    line << "oracle=" << oracles[o] << " corpus=" << corpora[o].size()
         << " coverage-keys=" << cover[o].size() << " corpus-digest=" << corpora[o].Digest()
         << " coverage-digest=" << cover[o].Digest() << "\n";
    HashString(hash, line.str());
  }
  result.hash = crypto::DigestToHex(hash.Finalize());

  for (const auto& p : pools) {
    result.worlds_built += p->stats().constructions;
    result.worlds_reused += p->stats().resets;
    result.pages_restored += p->stats().pages_restored;
  }

  if (log) {
    for (const OracleStats& st : result.stats) {
      std::ostringstream out;
      out << "oracle " << st.oracle << ": " << st.calls << " calls in " << st.traces
          << " traces, " << st.cpu_seconds << "s cpu, coverage-keys=" << st.coverage_keys
          << " corpus=" << st.corpus_entries;
      log(out.str());
    }
  }

  if (!opts.corpus_dir.empty()) {
    for (size_t o = 0; o < oracles.size(); ++o) {
      if (!corpora[o].SaveDir(opts.corpus_dir + "/" + oracles[o]) && log) {
        log("evolve: cannot write corpus under " + opts.corpus_dir + "/" + oracles[o]);
      }
    }
  }
  result.corpora = std::move(corpora);

  if (first_failure.has_value()) {
    ReportFailure(opts, *first_failure, log, result);
  }
  result.wall_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

}  // namespace

uint64_t ShardTraceSeed(uint64_t seed, uint32_t shard, uint64_t k) {
  // Diffuse the shard index through splitmix64 before mixing in the per-trace
  // counter: shard streams stay disjoint even for adjacent master seeds, and
  // the k-increment cannot walk one shard's stream into another's.
  return SplitMix64(SplitMix64(seed ^ (0x9e3779b97f4a7c15ull * (shard + 1))) + k);
}

uint64_t EvolveRoundSeed(uint64_t seed, uint32_t round) {
  return SplitMix64(seed ^ (0xa0761d6478bd642full * (round + 1)));
}

CampaignResult RunCampaign(const CampaignOptions& opts,
                           const std::function<void(const std::string&)>& log) {
  return opts.mode == CampaignMode::kEvolve ? RunEvolveCampaign(opts, log)
                                            : RunBlindCampaign(opts, log);
}

}  // namespace komodo::fuzz
