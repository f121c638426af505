// The end-to-end workloads of the repository benchmark (see README.md here).
//
// Each workload drives the system only through its public functions, makes
// its inputs from a seed, checks the program's outputs, and returns named
// metrics. An untraced run returns the end-to-end metrics; a traced run
// returns the per-layer metrics measured with the monitor's obs() tracer
// enabled on worlds the benchmark owns, plus timed probes of single layers.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/arm/types.h"

namespace perfbench {

using komodo::arm::word;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // One line per output mismatch; any entry makes the run incorrect.
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  bool correct() const { return failed == 0 && problems.empty() && attempted > 0; }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// --- serve-churn -----------------------------------------------------------

struct ServeShape {
  word sessions = 1000;
  word hot_sessions = 16;      // 3 of 4 requests land in this hot set
  word budget_pages = 70;      // ~10 resident sessions of 7 secure pages
  size_t queue_capacity = 512;
  size_t requests = 8000;      // requests per pass (one fresh server each)
};

struct ServeRequest {
  word session_index = 0;  // into the pass's session list
  word arg = 0;
};

std::vector<ServeRequest> ServeSchedule(const ServeShape& shape, uint64_t seed);

// One pass: a fresh server with `shape.sessions` sessions serving the whole
// schedule in a closed loop. Exposed for the self-test.
// Host times are scaled to the reference host speed (see workloads.cc).
struct ServePassResult {
  double setup_s = 0.0;
  double load_s = 0.0;
  double host_speed = 1.0;  // of the load phase
  uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<uint64_t> sim_latency_cycles;  // per request, schedule order
  std::string reply_digest;                  // SHA-256 of all replies, hex
};
ServePassResult RunServePass(const ServeShape& shape, uint64_t seed, bool traced);

Report RunServeChurn(const RunOptions& opts);

// --- notary-mix ------------------------------------------------------------

// Document sizes of one round, ascending: 32 sizes spaced geometrically from
// 4 kB to 512 kB (Fig. 5's range).
std::vector<size_t> NotaryDocSizes();
// The round's documents in seeded order with seeded contents.
std::vector<std::vector<uint8_t>> NotaryDocuments(uint64_t seed);

// Simulated cycles of each notarization of `docs`, one enclave built with
// the tracer on or off. Exposed for the self-test.
std::vector<uint64_t> NotarySimCycles(const std::vector<std::vector<uint8_t>>& docs,
                                      bool traced);

Report RunNotaryMix(const RunOptions& opts);

// --- fuzz-campaign ---------------------------------------------------------

// A blind four-oracle campaign on one thread with 4 shards.
struct FuzzShape {
  uint64_t calls = 96;    // monitor-call budget per oracle
  size_t trace_len = 40;  // ops per generated trace
};

// Campaign hash for `seed` (empty string and `*failed` set if any oracle
// reported a failure).
std::string FuzzCampaignHash(const FuzzShape& shape, uint64_t seed, bool* failed);

Report RunFuzzCampaign(const RunOptions& opts);

// --- verify-small ----------------------------------------------------------

Report RunVerifySmall(const RunOptions& opts);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
