// Interpreter fast-path benchmark (DESIGN.md §8): wall-clock steps/sec and
// SMC round-trip latency across two configurations —
//   uncached : interpreter with every fast path off (KOMODO_INTERP_CACHE=off
//              semantics): a full two-level walk per user-mode access, a
//              fresh Decode() per step, the O(L1) live-page-table scan per
//              store;
//   cached   : decode cache + micro-TLB + flat-memory fast path on.
// Both must retire identical step and simulated-cycle counts (asserted here;
// the differential suite compares whole machines).
//
// Emits BENCH_interp.json in the working directory so the perf trajectory is
// tracked PR over PR. `--smoke` runs tiny iteration counts for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/arm/machine.h"
#include "src/enclave/programs.h"
#include "src/enclave/sha256_program.h"
#include "src/os/world.h"

namespace komodo {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunStats {
  uint64_t steps = 0;
  uint64_t cycles = 0;
  double seconds = 0;
};

// Builds a SHA-256 enclave and notarises `iters` documents of `doc_len`
// bytes (the hashing core of the Fig. 5 notary workload, fully interpreted).
RunStats RunNotary(bool cached, size_t doc_len, int iters) {
  os::World w{64};
  w.machine.interp.set_enabled(cached);
  auto built = w.os.NewEnclave().Code(enclave::Sha256Program()).SharedPage().Build();
  if (!built.ok()) {
    std::abort();
  }
  const os::EnclaveHandle e = *std::move(built);
  std::vector<uint8_t> doc(doc_len);
  for (size_t i = 0; i < doc_len; ++i) {
    doc[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  const uint64_t steps0 = w.machine.steps_retired;
  const uint64_t cycles0 = w.machine.cycles.total();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    const word nblocks = enclave::StageSha256Message(w.os, e.shared_insecure_pgnr, doc);
    if (!w.os.Enter(e.thread, nblocks).exited()) {
      std::abort();
    }
  }
  const auto t1 = Clock::now();
  return {w.machine.steps_retired - steps0, w.machine.cycles.total() - cycles0,
          Seconds(t0, t1)};
}

// Enter/exit with a trivial enclave: the SMC round-trip cost in host time.
RunStats RunSmcRoundTrip(bool cached, int iters) {
  os::World w{64};
  w.machine.interp.set_enabled(cached);
  auto built = w.os.NewEnclave().Code(enclave::AddTwoProgram()).Build();
  if (!built.ok()) {
    std::abort();
  }
  const os::EnclaveHandle e = *std::move(built);
  const uint64_t steps0 = w.machine.steps_retired;
  const uint64_t cycles0 = w.machine.cycles.total();
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    if (!w.os.Enter(e.thread, 2, 3).exited()) {
      std::abort();
    }
  }
  const auto t1 = Clock::now();
  return {w.machine.steps_retired - steps0, w.machine.cycles.total() - cycles0,
          Seconds(t0, t1)};
}

struct Comparison {
  std::string name;
  RunStats uncached;
  RunStats cached;
  int iters = 0;

  double UncachedSps() const { return static_cast<double>(uncached.steps) / uncached.seconds; }
  double CachedSps() const { return static_cast<double>(cached.steps) / cached.seconds; }
  double Speedup() const { return uncached.seconds / cached.seconds; }
};

void CheckInvisible(const Comparison& c) {
  // Architectural invisibility, cheap version: identical step and simulated
  // cycle counts in both configurations. (The differential test suite
  // compares whole machines.)
  if (c.cached.steps != c.uncached.steps || c.cached.cycles != c.uncached.cycles) {
    std::fprintf(stderr, "FATAL: %s diverged: steps %llu vs %llu, cycles %llu vs %llu\n",
                 c.name.c_str(), static_cast<unsigned long long>(c.cached.steps),
                 static_cast<unsigned long long>(c.uncached.steps),
                 static_cast<unsigned long long>(c.cached.cycles),
                 static_cast<unsigned long long>(c.uncached.cycles));
    std::abort();
  }
}

void EmitJson(const std::vector<Comparison>& rows, bool smoke, const char* path) {
  bench::BenchJson json("interp");
  json.Config("smoke", smoke);
  json.HostConfig();
  for (const Comparison& c : rows) {
    json.Config(c.name + "_iters", static_cast<uint64_t>(c.iters));
    json.Result(c.name, "steps", static_cast<double>(c.cached.steps), "count");
    json.Result(c.name, "cached_steps_per_sec", c.CachedSps(), "steps/s");
    json.Result(c.name, "uncached_steps_per_sec", c.UncachedSps(), "steps/s");
    json.Result(c.name, "cached_seconds", c.cached.seconds, "s");
    json.Result(c.name, "uncached_seconds", c.uncached.seconds, "s");
    json.Result(c.name, "speedup", c.Speedup(), "x");
  }
  json.Write(path);
}

}  // namespace
}  // namespace komodo

int main(int argc, char** argv) {
  using komodo::Comparison;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  const int notary_iters = smoke ? 1 : 12;
  const int sha_iters = smoke ? 2 : 200;
  const int smc_iters = smoke ? 10 : 2000;

  struct Spec {
    const char* name;
    size_t doc_len;  // 0 = SMC round-trip workload
    int iters;
  };
  const Spec specs[] = {
      {"notary_3000B", 3000, notary_iters},
      {"sha256_64B", 64, sha_iters},
      {"smc_roundtrip", 0, smc_iters},
  };

  std::vector<Comparison> rows;
  for (const Spec& s : specs) {
    Comparison c;
    c.name = s.name;
    c.iters = s.iters;
    if (s.doc_len == 0) {
      c.uncached = komodo::RunSmcRoundTrip(/*cached=*/false, s.iters);
      c.cached = komodo::RunSmcRoundTrip(/*cached=*/true, s.iters);
    } else {
      c.uncached = komodo::RunNotary(/*cached=*/false, s.doc_len, s.iters);
      c.cached = komodo::RunNotary(/*cached=*/true, s.doc_len, s.iters);
    }
    rows.push_back(c);
  }

  std::printf("=== Interpreter fast path: uncached vs cached ===\n");
  std::printf("%-16s %12s %14s %14s %8s\n", "workload", "steps", "uncached st/s",
              "cached st/s", "speedup");
  for (const Comparison& c : rows) {
    komodo::CheckInvisible(c);
    std::printf("%-16s %12llu %14.0f %14.0f %7.2fx\n", c.name.c_str(),
                static_cast<unsigned long long>(c.cached.steps), c.UncachedSps(),
                c.CachedSps(), c.Speedup());
  }
  const Comparison& smc = rows.back();
  std::printf("\nSMC round-trip: %.0f ns cached, %.0f ns uncached (per Enter/exit)\n",
              smc.cached.seconds / smc.iters * 1e9, smc.uncached.seconds / smc.iters * 1e9);

  komodo::EmitJson(rows, smoke, "BENCH_interp.json");
  return 0;
}
