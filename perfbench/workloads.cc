#include "perfbench/workloads.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "src/core/call_table.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"
#include "src/enclave/notary.h"
#include "src/fuzz/campaign.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/oracles.h"
#include "src/fuzz/pool.h"
#include "src/os/world.h"
#include "src/serve/server.h"
#include "src/spec/equivalence.h"
#include "src/spec/extract.h"
#include "src/verify/canon.h"
#include "src/verify/explore.h"
#include "src/verify/obligations.h"

namespace perfbench {
namespace {

using namespace komodo;  // NOLINT: the benchmark drives every layer

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// splitmix64: well mixed for any seed, including 0.
class Rng {
 public:
  explicit Rng(uint64_t seed) : x_(seed) {}
  uint64_t Next() {
    uint64_t z = (x_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t x_;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// End-to-end host times are CPU time of the (only) thread, so time the
// scheduler gives to other tenants is left out. The shared host's speed also
// drifts by tens of percent within minutes, and every part of the program
// slows with it, so host times are scaled to a reference speed as well.
// While a HostMeter exists, a profiling timer interrupts the work every
// kSlicePeriodUs of CPU time to run one slice of a fixed calibration kernel.
// A chunk of work (a serve pass, a notary round, a campaign, an exploration,
// one set-up) is timed without the slices and scaled by
// kReferenceSliceSeconds / (median time of the slices taken during the
// chunk). kReferenceSliceSeconds is a fixed constant near a slice's time on
// a quiet host; only its constancy matters. The kernel is the benchmark's
// own code, so no change to the program moves it, while a faster program
// still shortens every chunk.
namespace calibration {

constexpr double kReferenceSliceSeconds = 200e-6;
constexpr long kSlicePeriodUs = 4000;
// A chunk too short to hold this many slices is scaled by the most recent
// ones.
constexpr uint64_t kMinSlices = 9;
// Slice times are kept in a ring far longer than any chunk.
constexpr uint64_t kRingSlices = uint64_t{1} << 16;

// The kernel exercises the four resources the workloads spend their time on,
// so that contention for any of them slows the kernel too:
//  1. an interpreter: a register machine running a fixed random program of
//     loads, stores, data-dependent jumps and ALU ops over 64 KiB, like the
//     ARM interpreter and the checkers;
//  2. a multiply and rotate chain in registers, like the bignum and SHA code;
//  3. 4 KiB page copies and fills in a 1 MiB arena, like the monitor's page
//     loops;
//  4. a streaming read of 512 KiB from a 4 MiB buffer, past a core's L2, like
//     the fuzzer's whole-memory compares.
// The part sizes split a slice's time roughly 20/35/5/40 on the reference
// host.
constexpr uint32_t kInterpSteps = 13000;
constexpr int kAluRounds = 2450;
constexpr int kPagesPerSlice = 6;
constexpr size_t kStreamWindowWords = size_t{1} << 17;

struct Op {
  uint8_t code, a, b, c;
};
constexpr uint32_t kMemMask = (uint32_t{1} << 14) - 1;
constexpr size_t kPageBytes = 4096;
constexpr size_t kArenaPages = 256;

std::array<Op, 256> g_program;
std::array<uint32_t, kMemMask + 1> g_mem;
uint32_t g_regs[16];
uint64_t g_alu_x;
uint32_t g_alu_s[8];
std::array<uint8_t, kArenaPages * kPageBytes> g_arena;
std::array<uint32_t, kStreamWindowWords * 8> g_stream;
uint64_t g_cursor;
volatile uint64_t g_sink;

std::array<float, kRingSlices> g_slice_s;
std::atomic<uint64_t> g_slices{0};
std::atomic<uint64_t> g_paused_ns{0};

static_assert(std::atomic<uint64_t>::is_always_lock_free, "used from a signal handler");

// The thread clock: while a process-wide CPU timer is armed, the process
// clock only advances at scheduler ticks.
uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u + static_cast<uint64_t>(ts.tv_nsec);
}

void Reset() {
  Rng rng(0x6b6f6d6f646fu);
  for (Op& op : g_program) {
    const uint64_t v = rng.Next();
    op = {static_cast<uint8_t>(v % 8), static_cast<uint8_t>((v >> 8) % 16),
          static_cast<uint8_t>((v >> 16) % 16), static_cast<uint8_t>((v >> 24) % 16)};
  }
  g_mem.fill(7);
  for (uint32_t i = 0; i < 16; ++i) {
    g_regs[i] = i + 1;
  }
  g_alu_x = 88172645463325252ull;
  for (uint32_t i = 0; i < 8; ++i) {
    g_alu_s[i] = i + 1;
  }
  g_arena.fill(3);
  g_stream.fill(5);
  g_cursor = 0;
  g_slices = 0;
  g_paused_ns = 0;
}

uint32_t Interpret() {
  uint32_t* r = g_regs;
  uint32_t pc = 0;
  for (uint32_t i = 0; i < kInterpSteps; ++i) {
    const Op op = g_program[pc++ % g_program.size()];
    switch (op.code) {
      case 0: r[op.a] = r[op.b] + r[op.c]; break;
      case 1: r[op.a] = r[op.b] ^ (r[op.c] >> 3 | r[op.c] << 29); break;
      case 2: r[op.a] = g_mem[(r[op.b] + i) & kMemMask]; break;
      case 3: g_mem[(r[op.b] ^ i) & kMemMask] = r[op.a] + r[op.c]; break;
      case 4:
        if ((r[op.a] & 1) != 0) {
          pc = r[op.b];
        }
        break;
      case 5: r[op.a] = r[op.b] * r[op.c] + 1; break;
      case 6: r[op.a] = r[op.b] - r[op.c] + i; break;
      default: r[op.a] = r[op.b] < r[op.c] ? r[op.b] : r[op.c] + 7; break;
    }
  }
  return r[0];
}

uint64_t MixAlu() {
  for (int i = 0; i < kAluRounds; ++i) {
    g_alu_x = g_alu_x * 6364136223846793005ull + 1442695040888963407ull;
    for (int k = 0; k < 12; ++k) {
      uint32_t a = g_alu_s[k & 7];
      const uint32_t b = g_alu_s[(k + 1) & 7];
      a = (a >> 7 | a << 25) ^ (b >> 13 | b << 19) ^ (a & b) ^ static_cast<uint32_t>(g_alu_x);
      g_alu_s[k & 7] = a + b * 0x9e3779b9u;
    }
  }
  return g_alu_x ^ g_alu_s[0];
}

uint8_t MovePages() {
  uint8_t* a = g_arena.data();
  for (int p = 0; p < kPagesPerSlice; ++p) {
    const size_t src = (g_cursor * 7 + static_cast<size_t>(p) * 131) % kArenaPages;
    const size_t dst = (g_cursor * 13 + static_cast<size_t>(p) * 197 + kArenaPages / 2) %
                       kArenaPages;
    std::memcpy(a + dst * kPageBytes, a + src * kPageBytes, kPageBytes);
    std::memset(a + src * kPageBytes, p, kPageBytes);
  }
  return a[g_cursor % g_arena.size()];
}

uint64_t StreamRead() {
  const size_t base = (g_cursor % (g_stream.size() / kStreamWindowWords)) * kStreamWindowWords;
  uint64_t acc = 0;
  for (size_t i = 0; i < kStreamWindowWords; ++i) {
    acc += g_stream[base + i] ^ i;
  }
  return acc;
}

// SIGPROF handler: one slice. It only computes, copies memory and reads the
// CPU clock, all async-signal-safe.
void OnTimer(int) {
  const int saved_errno = errno;
  const uint64_t t0 = CpuNs();
  g_sink = Interpret() + MixAlu() + MovePages() + StreamRead();
  ++g_cursor;
  const uint64_t dt = CpuNs() - t0;
  const uint64_t n = g_slices.load(std::memory_order_relaxed);
  g_slice_s[n % kRingSlices] = static_cast<float>(static_cast<double>(dt) * 1e-9);
  g_paused_ns.fetch_add(dt, std::memory_order_relaxed);
  g_slices.store(n + 1, std::memory_order_relaxed);
  errno = saved_errno;
}

}  // namespace calibration

// At most one HostMeter exists at a time; it owns SIGPROF and the profiling
// timer while it lives.
class HostMeter {
 public:
  struct Mark {
    double work_s = 0.0;
    uint64_t slices = 0;
  };

  HostMeter() {
    using namespace calibration;  // NOLINT
    Reset();
    origin_ns_ = CpuNs();

    struct sigaction sa {};
    sa.sa_handler = OnTimer;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, &saved_action_);
    itimerval period{};
    period.it_interval.tv_usec = kSlicePeriodUs;
    period.it_value.tv_usec = kSlicePeriodUs;
    setitimer(ITIMER_PROF, &period, nullptr);
  }

  ~HostMeter() {
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    sigaction(SIGPROF, &saved_action_, nullptr);
  }

  HostMeter(const HostMeter&) = delete;
  HostMeter& operator=(const HostMeter&) = delete;

  // Seconds of work since the meter was made: CPU time without the slices.
  double Now() const {
    using namespace calibration;  // NOLINT
    for (;;) {
      const uint64_t paused = g_paused_ns.load();
      const uint64_t cpu = CpuNs();
      if (g_paused_ns.load() == paused) {
        return static_cast<double>(cpu - origin_ns_ - paused) * 1e-9;
      }
    }
  }

  Mark Start() const { return {Now(), calibration::g_slices.load()}; }

  // Host speed over the slices taken since `m` (at least the last
  // kMinSlices): 1 at the reference speed, below 1 on a slower host.
  double Speed(const Mark& m) const {
    using namespace calibration;  // NOLINT
    const uint64_t end = g_slices.load();
    const uint64_t begin = std::min(m.slices, end > kMinSlices ? end - kMinSlices : 0);
    std::vector<double> times;
    for (uint64_t i = begin; i < end; ++i) {
      times.push_back(g_slice_s[i % kRingSlices]);
    }
    return times.empty() ? 1.0 : kReferenceSliceSeconds / Median(times);
  }

  // Work seconds since `m`, scaled to the reference speed.
  double Scaled(const Mark& m) const { return (Now() - m.work_s) * Speed(m); }

 private:
  uint64_t origin_ns_ = 0;
  struct sigaction saved_action_ {};
};

// The percentile convention of bench_serve: element n*p/100 of the sorted
// samples (p50 = upper median, p99 = the sample with 1% above it).
template <typename T>
T Pct(std::vector<T> v, size_t p) {
  if (v.empty()) {
    return T{};
  }
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, v.size() * p / 100)];
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Median host time of `reps` calls of `fn`, in microseconds.
double TimeUs(int reps, const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    us.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  return Median(us);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void AddCommon(Report& r, double setup_s, double ops_per_s, double p50_ms, double p99_ms,
               uint64_t sim_p50, uint64_t sim_p99) {
  r.Add("setup_s", setup_s, "s");
  r.Add("ops_per_s", ops_per_s, "1/s");
  r.Add("host_p50_ms", p50_ms, "ms");
  r.Add("host_p99_ms", p99_ms, "ms");
  r.Add("sim_p50_cycles", static_cast<double>(sim_p50), "cycles");
  r.Add("sim_p99_cycles", static_cast<double>(sim_p99), "cycles");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
}

// --- monitor-side per-layer metrics from the obs() tracer --------------------

// Sums of the tracer's per-SMC statistics over the traced worlds of a run.
struct SmcTotals {
  struct Row {
    uint64_t calls = 0;
    uint64_t wall_ns = 0;
    uint64_t cycles = 0;
  };
  std::map<std::string, Row> rows;
  uint64_t steps = 0;
  uint64_t decode_hits = 0;
  uint64_t decode_misses = 0;
  uint64_t tlb_hits = 0;
  uint64_t tlb_misses = 0;

  void Absorb(const obs::Observability& o) {
    for (const auto& [nr, s] : o.smc_stats()) {
      Row& row = rows[s.name];
      row.calls += s.calls;
      row.wall_ns += s.wall_ns;
      row.cycles += s.cycles;
      steps += s.steps;
      decode_hits += s.decode_hits;
      decode_misses += s.decode_misses;
      tlb_hits += s.tlb_hits;
      tlb_misses += s.tlb_misses;
    }
  }

  // `units` is how many workload units (passes, rounds) the totals cover;
  // call and step counts are reported per unit so they repeat exactly.
  void AddTo(Report& r, double units) const {
    for (const auto& [name, row] : rows) {
      const std::string p = "core.smc." + name;
      r.Add(p + ".calls", Ratio(static_cast<double>(row.calls), units), "count");
      r.Add(p + ".host_us", Ratio(static_cast<double>(row.wall_ns) / 1e3, row.calls), "us");
      r.Add(p + ".sim_cycles", Ratio(static_cast<double>(row.cycles), row.calls), "cycles");
    }
    r.Add("arm.steps", Ratio(static_cast<double>(steps), units), "count");
    r.Add("arm.decode_hit_ratio",
          Ratio(static_cast<double>(decode_hits), static_cast<double>(decode_hits + decode_misses)),
          "ratio");
    r.Add("arm.tlb_hit_ratio",
          Ratio(static_cast<double>(tlb_hits), static_cast<double>(tlb_hits + tlb_misses)),
          "ratio");
  }
};

// µs per kB of crypto::Sha256Hash over `docs`, median of several passes.
double Sha256UsPerKb(const std::vector<std::vector<uint8_t>>& docs) {
  size_t bytes = 0;
  for (const auto& d : docs) {
    bytes += d.size();
  }
  uint8_t sink = 0;
  const double us = TimeUs(5, [&] {
    for (const auto& d : docs) {
      sink ^= crypto::Sha256Hash(d)[0];
    }
  });
  volatile uint8_t keep = sink;
  (void)keep;
  return us / (static_cast<double>(bytes) / 1024.0);
}

std::vector<uint8_t> SeededBytes(uint64_t seed, size_t len) {
  std::vector<uint8_t> out(len);
  Rng rng(seed);
  for (size_t i = 0; i < len; i += 8) {
    const uint64_t v = rng.Next();
    for (size_t j = 0; j < 8 && i + j < len; ++j) {
      out[i + j] = static_cast<uint8_t>(v >> (8 * j));
    }
  }
  return out;
}

}  // namespace

// ============================================================================
// serve-churn
// ============================================================================

std::vector<ServeRequest> ServeSchedule(const ServeShape& shape, uint64_t seed) {
  Rng rng(seed);
  std::vector<ServeRequest> out;
  out.reserve(shape.requests);
  for (size_t i = 0; i < shape.requests; ++i) {
    const uint64_t r = rng.Next();
    ServeRequest req;
    // Exactly 3 of every 4 requests are hot, so seeds differ only in which
    // sessions they pick, not in how skewed the load is.
    req.session_index = static_cast<word>(i % 4 != 0 ? r % shape.hot_sessions : r % shape.sessions);
    req.arg = static_cast<word>(rng.Next() % 997);
    out.push_back(req);
  }
  return out;
}

namespace {

// Host-time spans around the serve layer's public calls (traced passes only).
struct ServeLayers {
  double submit_s = 0.0;
  uint64_t submits = 0;
  double build_round_s = 0.0;
  uint64_t build_rounds = 0;
  double warm_round_s = 0.0;
  uint64_t warm_rounds = 0;
  uint64_t passes = 0;
  serve::ServerStats stats;  // of the last traced pass (deterministic)
  SmcTotals smc;
};

struct ServePassDetail {
  ServePassResult result;
  std::vector<double> host_latency_ms;
};

ServePassDetail ServePass(const ServeShape& shape, const std::vector<ServeRequest>& schedule,
                          HostMeter& meter, ServeLayers* layers) {
  using serve::RequestId;
  using serve::RequestResult;
  using serve::ServeErr;
  using serve::SessionId;

  ServePassDetail out;
  ServePassResult& res = out.result;

  const HostMeter::Mark setup = meter.Start();
  serve::Server::Config config;
  config.nsecure_pages = shape.budget_pages + 16;  // the budget is the binding constraint
  config.secure_page_budget = shape.budget_pages;
  config.queue_capacity = shape.queue_capacity;
  config.batching = true;
  serve::Server server(serve::DefaultCatalog(), config);
  if (layers != nullptr) {
    server.world().monitor.obs().Enable();
  }
  std::vector<SessionId> sids;
  sids.reserve(shape.sessions);
  for (word i = 0; i < shape.sessions; ++i) {
    auto sid = server.CreateSession(i % 2 == 0 ? "counter" : "echo");
    if (!sid.ok()) {
      res.problems.push_back("CreateSession failed");
      return out;
    }
    sids.push_back(*sid);
  }
  res.setup_s = meter.Scaled(setup);

  struct Outstanding {
    RequestId rid = 0;
    SessionId sid = 0;
    double submitted = 0.0;  // HostMeter work seconds
  };
  std::vector<Outstanding> reqs(schedule.size());
  std::vector<double> latency_ms(schedule.size(), -1.0);
  std::deque<size_t> fifo;  // submit order, lazily pruned of completed requests
  std::map<SessionId, std::deque<size_t>> by_session;

  // One scheduling round, then record completion time for every request of
  // the served session that the round finished (rounds serve one session's
  // queued requests in FIFO order). Latencies are in unscaled work seconds
  // until the pass ends.
  auto pump = [&]() {
    while (!fifo.empty() && latency_ms[fifo.front()] >= 0.0) {
      fifo.pop_front();
    }
    if (fifo.empty()) {
      return server.PumpOne();
    }
    const SessionId head = reqs[fifo.front()].sid;
    const bool warm = server.session_built(head);
    const auto t0 = Clock::now();
    const bool ran = server.PumpOne();
    const auto t1 = Clock::now();
    const double done = meter.Now();
    if (layers != nullptr) {
      (warm ? layers->warm_round_s : layers->build_round_s) += Seconds(t0, t1);
      ++(warm ? layers->warm_rounds : layers->build_rounds);
    }
    std::deque<size_t>& q = by_session[head];
    while (!q.empty() && server.Poll(reqs[q.front()].rid) != nullptr) {
      latency_ms[q.front()] = (done - reqs[q.front()].submitted) * 1e3;
      q.pop_front();
    }
    return ran;
  };

  const HostMeter::Mark load = meter.Start();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const SessionId sid = sids[schedule[i].session_index];
    for (;;) {
      const double submitted = meter.Now();
      const auto t0 = Clock::now();
      auto rid = server.Submit(sid, schedule[i].arg);
      if (layers != nullptr) {
        layers->submit_s += Seconds(t0, Clock::now());
        ++layers->submits;
      }
      if (rid.ok()) {
        reqs[i] = {*rid, sid, submitted};
        fifo.push_back(i);
        by_session[sid].push_back(i);
        break;
      }
      if (rid.error() != ServeErr::kQueueFull) {
        res.problems.push_back(std::string("Submit failed: ") + serve::ServeErrName(rid.error()));
        return out;
      }
      pump();
    }
  }
  while (server.queue_depth() > 0) {
    pump();
  }
  res.host_speed = meter.Speed(load);
  res.load_s = meter.Scaled(load);
  for (double& ms : latency_ms) {
    ms *= res.host_speed;
  }

  crypto::Sha256 digest;
  res.sim_latency_cycles.reserve(schedule.size());
  for (size_t i = 0; i < schedule.size(); ++i) {
    const RequestResult* r = server.Poll(reqs[i].rid);
    if (r == nullptr || !r->ok) {
      ++res.failed;
      res.sim_latency_cycles.push_back(0);
      digest.UpdateWordLe(0xffffffffu);
      continue;
    }
    const bool echo = schedule[i].session_index % 2 == 1;
    if (echo ? r->value != 2 * schedule[i].arg + 1 : r->value < schedule[i].arg) {
      res.problems.push_back("request " + std::to_string(i) + ": wrong reply " +
                             std::to_string(r->value));
    }
    if (latency_ms[i] < 0.0) {
      res.problems.push_back("request " + std::to_string(i) + ": completion not observed");
    }
    res.sim_latency_cycles.push_back(r->latency_cycles);
    digest.UpdateWordLe(r->value);
  }
  res.reply_digest = crypto::DigestToHex(digest.Finalize());
  out.host_latency_ms = std::move(latency_ms);

  if (layers != nullptr) {
    ++layers->passes;
    layers->stats = server.stats();
    layers->smc.Absorb(server.world().monitor.obs());
  }
  return out;
}

}  // namespace

ServePassResult RunServePass(const ServeShape& shape, uint64_t seed, bool traced) {
  ServeLayers layers;
  HostMeter meter;
  return ServePass(shape, ServeSchedule(shape, seed), meter, traced ? &layers : nullptr).result;
}

Report RunServeChurn(const RunOptions& opts) {
  const ServeShape shape;
  const std::vector<ServeRequest> schedule = ServeSchedule(shape, opts.seed);
  Report report;

  // Every pass serves the identical schedule on a fresh server, so replies
  // and simulated latencies must repeat exactly from pass to pass.
  std::optional<ServePassResult> first;
  std::vector<double> setup_s, untraced_rate, traced_rate, p50_ms, p99_ms, speed;
  ServeLayers layers;
  HostMeter meter;
  const auto start = Clock::now();
  const double untraced_window = opts.trace ? opts.seconds / 2 : opts.seconds;
  for (int phase = 0; phase < (opts.trace ? 2 : 1); ++phase) {
    const bool traced = phase == 1;
    const double until = traced ? opts.seconds : untraced_window;
    std::vector<double>& rate = traced ? traced_rate : untraced_rate;
    while (rate.size() < 3 || Seconds(start, Clock::now()) < until) {
      ServePassDetail pass = ServePass(shape, schedule, meter, traced ? &layers : nullptr);
      ServePassResult& r = pass.result;
      report.attempted += schedule.size();
      report.failed += r.failed;
      for (std::string& p : r.problems) {
        report.problems.push_back(std::move(p));
      }
      if (!report.problems.empty()) {
        return report;
      }
      if (!first.has_value()) {
        first = r;
      } else if (r.reply_digest != first->reply_digest ||
                 r.sim_latency_cycles != first->sim_latency_cycles) {
        report.problems.push_back("serve pass did not repeat the first pass's replies/latencies");
        return report;
      }
      setup_s.push_back(r.setup_s);
      speed.push_back(r.host_speed);
      rate.push_back(static_cast<double>(schedule.size()) / r.load_s);
      if (!traced) {
        p50_ms.push_back(Pct(pass.host_latency_ms, 50));
        p99_ms.push_back(Pct(pass.host_latency_ms, 99));
      }
    }
  }

  std::printf("serve-churn: passes=%zu host_speed=%.4f reply_digest=%s\n", setup_s.size(),
              Median(speed), first->reply_digest.c_str());
  if (!opts.trace) {
    // Host latency percentiles are taken per pass (8,000 samples each), then
    // the median over passes.
    AddCommon(report, Median(setup_s), Median(untraced_rate), Median(p50_ms),
              Median(p99_ms), Pct(first->sim_latency_cycles, 50),
              Pct(first->sim_latency_cycles, 99));
    return report;
  }

  const serve::ServerStats& st = layers.stats;
  const double rounds = static_cast<double>(layers.build_rounds + layers.warm_rounds);
  report.Add("serve.submit_us", Ratio(layers.submit_s * 1e6, layers.submits), "us");
  report.Add("serve.round_build_us", Ratio(layers.build_round_s * 1e6, layers.build_rounds),
             "us");
  report.Add("serve.round_warm_us", Ratio(layers.warm_round_s * 1e6, layers.warm_rounds), "us");
  report.Add("serve.build_round_frac", Ratio(layers.build_rounds, rounds), "ratio");
  report.Add("serve.evictions", static_cast<double>(st.evictions), "count");
  report.Add("serve.rebuilds", static_cast<double>(st.rebuilds), "count");
  report.Add("serve.world_switches_per_req",
             Ratio(st.world_switches, st.requests_completed), "ratio");
  report.Add("serve.mean_batch", Ratio(st.batched_requests, st.batches), "count");
  report.Add("serve.queue_full", static_cast<double>(st.queue_full_rejections), "count");
  layers.smc.AddTo(report, static_cast<double>(layers.passes));

  // The SHA-256 work of a rebuild is the measurement of whole 4 kB pages.
  std::vector<std::vector<uint8_t>> pages;
  for (uint64_t i = 0; i < 64; ++i) {
    pages.push_back(SeededBytes(opts.seed ^ (i << 32), arm::kPageSize));
  }
  report.Add("crypto.sha256_us_per_kB", Sha256UsPerKb(pages), "us/kB");
  report.Add("trace_overhead_frac",
             Ratio(Median(untraced_rate) - Median(traced_rate), Median(untraced_rate)), "ratio");
  return report;
}

// ============================================================================
// notary-mix
// ============================================================================

namespace {

// The RSA key is fixed: key generation searches for primes from the key
// seed, so its time depends on the seed far more than on the code. Documents
// come from the workload seed.
constexpr uint64_t kNotaryKeySeed = 4242;

// The notary enclave wired up with the full shared document region, as
// NotaryRig in bench/bench_fig5_notary.cpp.
class NotaryRig {
 public:
  NotaryRig() {
    auto& os = w_.os;
    const PageNr as = os.AllocSecurePage();
    const PageNr l1pt = os.AllocSecurePage();
    const PageNr l2 = os.AllocSecurePage();
    ok_ = os.InitAddrspace(as, l1pt).err == kErrSuccess &&
          os.InitL2Table(as, l2, 0).err == kErrSuccess;
    const word staging = os.AllocInsecurePage();
    os.WriteInsecurePage(staging, {0xe3a00001, 0xef000000});
    const PageNr code = os.AllocSecurePage();
    ok_ = ok_ && os.MapSecure(as, code, MakeMapping(os::kEnclaveCodeVa, kMapR | kMapX), staging)
                         .err == kErrSuccess;
    doc_pg0_ = os.AllocInsecurePage();
    for (word i = 1; i < enclave::kNotarySharedPages + 1; ++i) {
      os.AllocInsecurePage();
    }
    for (word i = 0; i < enclave::kNotarySharedPages + 1; ++i) {
      ok_ = ok_ && os.MapInsecure(as,
                                  MakeMapping(os::kEnclaveSharedVa + i * arm::kPageSize,
                                              kMapR | kMapW),
                                  doc_pg0_ + i)
                           .err == kErrSuccess;
    }
    thread_ = os.AllocSecurePage();
    ok_ = ok_ && os.InitThread(as, thread_, os::kEnclaveCodeVa).err == kErrSuccess &&
          os.Finalise(as).err == kErrSuccess;
    program_ = std::make_shared<enclave::NotaryProgram>(kNotaryKeySeed);
    runtime_.Register(l1pt, program_);
    ok_ = ok_ && w_.os.Enter(thread_, enclave::kNotaryCmdInit).exited();
    if (ok_) {
      pub_.n = crypto::BigNum::FromBytesBe(ReadShared(kPubKeyOffset, 128));
      pub_.e = crypto::BigNum(65537);
    }
  }

  bool ok() const { return ok_; }
  os::World& world() { return w_; }
  enclave::NotaryCore& core() { return program_->core(); }
  const crypto::RsaPublicKey& published_key() const { return pub_; }

  // Copies the document into the shared region with Os::WriteInsecurePage.
  void Stage(const std::vector<uint8_t>& doc) {
    std::vector<word> words(arm::kWordsPerPage);
    for (size_t off = 0; off < doc.size(); off += arm::kPageSize) {
      std::fill(words.begin(), words.end(), 0);
      const size_t n = std::min<size_t>(arm::kPageSize, doc.size() - off);
      for (size_t i = 0; i < n; ++i) {
        words[i / 4] |= static_cast<word>(doc[off + i]) << (8 * (i % 4));
      }
      w_.os.WriteInsecurePage(doc_pg0_ + static_cast<word>(off / arm::kPageSize), words);
    }
  }

  os::EnterResult Notarize(size_t len) {
    return w_.os.Enter(thread_, enclave::kNotaryCmdNotarize, static_cast<word>(len));
  }

  std::vector<uint8_t> Signature() { return ReadShared(kSignatureOffset, 128); }

 private:
  static constexpr word kPubKeyOffset = enclave::kNotaryMaxDocBytes;
  static constexpr word kSignatureOffset = enclave::kNotaryMaxDocBytes + 1024;

  std::vector<uint8_t> ReadShared(word byte_offset, size_t len) const {
    std::vector<uint8_t> out(len);
    for (size_t i = 0; i < len; ++i) {
      const word off = byte_offset + static_cast<word>(i);
      const word v = w_.os.ReadInsecure(doc_pg0_ + off / arm::kPageSize,
                                        (off % arm::kPageSize) / 4);
      out[i] = static_cast<uint8_t>(v >> (8 * (off % 4)));
    }
    return out;
  }

  os::World w_{512};
  enclave::NativeRuntime runtime_{w_.monitor};
  std::shared_ptr<enclave::NotaryProgram> program_;
  crypto::RsaPublicKey pub_;
  PageNr thread_ = 0;
  word doc_pg0_ = 0;
  bool ok_ = false;
};

// The notarized message: document || counter before the increment (LE).
std::vector<uint8_t> NotaryMessage(const std::vector<uint8_t>& doc, uint32_t counter) {
  std::vector<uint8_t> m(doc);
  for (int i = 0; i < 4; ++i) {
    m.push_back(static_cast<uint8_t>(counter >> (8 * i)));
  }
  return m;
}

}  // namespace

std::vector<size_t> NotaryDocSizes() {
  std::vector<size_t> sizes;
  constexpr int kSizes = 32;
  for (int i = 0; i < kSizes; ++i) {
    const double kb = 4.0 * std::pow(128.0, static_cast<double>(i) / (kSizes - 1));
    sizes.push_back(static_cast<size_t>(std::lround(kb * 256.0)) * 4);  // whole words
  }
  sizes.back() = enclave::kNotaryMaxDocBytes;
  return sizes;
}

std::vector<std::vector<uint8_t>> NotaryDocuments(uint64_t seed) {
  std::vector<size_t> sizes = NotaryDocSizes();
  Rng rng(seed);
  for (size_t i = sizes.size() - 1; i > 0; --i) {  // seeded Fisher-Yates
    std::swap(sizes[i], sizes[rng.Next() % (i + 1)]);
  }
  std::vector<std::vector<uint8_t>> docs;
  for (size_t i = 0; i < sizes.size(); ++i) {
    docs.push_back(SeededBytes(rng.Next(), sizes[i]));
  }
  return docs;
}

std::vector<uint64_t> NotarySimCycles(const std::vector<std::vector<uint8_t>>& docs,
                                      bool traced) {
  NotaryRig rig;
  if (traced) {
    rig.world().monitor.obs().Enable();
  }
  std::vector<uint64_t> out;
  for (const auto& doc : docs) {
    rig.Stage(doc);
    const uint64_t before = rig.world().machine.cycles.total();
    if (!rig.Notarize(doc.size()).exited()) {
      return {};
    }
    out.push_back(rig.world().machine.cycles.total() - before);
  }
  return out;
}

Report RunNotaryMix(const RunOptions& opts) {
  Report report;
  const std::vector<std::vector<uint8_t>> docs = NotaryDocuments(opts.seed);
  size_t round_bytes = 0;
  for (const auto& d : docs) {
    round_bytes += d.size();
  }

  const auto start = Clock::now();
  HostMeter meter;
  // Set-up (world build plus in-enclave key generation) runs three times;
  // the last rig serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<NotaryRig> rig;
  for (int i = 0; i < 3; ++i) {
    rig.reset();
    const HostMeter::Mark m = meter.Start();
    rig = std::make_unique<NotaryRig>();
    setup_s.push_back(meter.Scaled(m));
    if (!rig->ok()) {
      report.problems.push_back("notary enclave build or init failed");
      return report;
    }
  }

  // Whole rounds only: every round notarizes each document once, so the
  // cycle percentiles are the same for any number of rounds.
  std::vector<double> p50_ms, p99_ms, untraced_rate, traced_rate, speed;
  std::vector<uint64_t> sim_cycles;
  double stage_s = 0.0;
  size_t staged_bytes = 0;
  uint32_t counter = rig->core().counter();
  SmcTotals smc;
  uint64_t traced_rounds = 0;
  const double untraced_window = opts.trace ? opts.seconds / 2 : opts.seconds;
  for (int phase = 0; phase < (opts.trace ? 2 : 1); ++phase) {
    const bool traced = phase == 1;
    if (traced) {
      rig->world().monitor.obs().Enable();
    }
    const double until = traced ? opts.seconds : untraced_window;
    std::vector<double>& rate = traced ? traced_rate : untraced_rate;
    while (rate.size() < 2 || Seconds(start, Clock::now()) < until) {
      // Times are scaled by the round's host speed.
      const HostMeter::Mark round = meter.Start();
      double round_s = 0.0;
      std::vector<double> enter_ms;
      for (const auto& doc : docs) {
        ++report.attempted;
        const double t0 = meter.Now();
        rig->Stage(doc);
        const double t1 = meter.Now();
        const uint64_t before = rig->world().machine.cycles.total();
        const os::EnterResult er = rig->Notarize(doc.size());
        const double t2 = meter.Now();
        round_s += t2 - t0;
        if (traced) {
          stage_s += t1 - t0;
          staged_bytes += doc.size();
        } else {
          enter_ms.push_back((t2 - t1) * 1e3);
          sim_cycles.push_back(rig->world().machine.cycles.total() - before);
        }
        if (!er.exited() || er.payload != counter + 1) {
          ++report.failed;
          report.problems.push_back("notarize: unexpected exit " +
                                    std::string(os::EnclaveExitName(er.reason)) + " value " +
                                    std::to_string(er.payload));
          return report;
        }
        const std::vector<uint8_t> msg = NotaryMessage(doc, counter);
        if (!crypto::RsaVerifySha256(rig->published_key(), msg.data(), msg.size(),
                                     rig->Signature())) {
          ++report.failed;
          report.problems.push_back("notarize: signature does not verify (counter " +
                                    std::to_string(counter) + ")");
          return report;
        }
        counter = er.payload;
      }
      const double round_speed = meter.Speed(round);
      speed.push_back(round_speed);
      rate.push_back(static_cast<double>(docs.size()) / (round_s * round_speed));
      if (traced) {
        ++traced_rounds;
      } else {
        p50_ms.push_back(Pct(enter_ms, 50) * round_speed);
        p99_ms.push_back(Pct(enter_ms, 99) * round_speed);
      }
    }
  }

  std::printf("notary-mix: rounds=%zu documents/round=%zu round_kB=%zu host_speed=%.4f\n",
              untraced_rate.size() + traced_rate.size(), docs.size(), round_bytes / 1024,
              Median(speed));
  if (!opts.trace) {
    // Per-round percentiles (one notarization of each size), median over
    // rounds: p99 of a round is its 512 kB document.
    AddCommon(report, Median(setup_s), Median(untraced_rate), Median(p50_ms), Median(p99_ms),
              Pct(sim_cycles, 50), Pct(sim_cycles, 99));
    return report;
  }

  smc.Absorb(rig->world().monitor.obs());
  smc.AddTo(report, static_cast<double>(traced_rounds));
  report.Add("os.stage_us_per_kB",
             Ratio(stage_s * 1e6, static_cast<double>(staged_bytes) / 1024.0), "us/kB");

  // Enclave vs. native on one round of the same documents: host time of the
  // Enter against NotaryCore::Notarize outside any world, and simulated
  // cycles against the NotaryNative process model (Fig. 5's overhead).
  std::vector<double> enter_us, core_us;
  uint64_t enclave_cycles = 0;
  for (const auto& doc : docs) {
    rig->Stage(doc);
    const uint64_t before = rig->world().machine.cycles.total();
    const auto t0 = Clock::now();
    rig->Notarize(doc.size());
    enter_us.push_back(Seconds(t0, Clock::now()) * 1e6);
    enclave_cycles += rig->world().machine.cycles.total() - before;
  }
  for (const auto& doc : docs) {
    uint64_t cycles = 0;
    const auto t0 = Clock::now();
    rig->core().Notarize(doc.data(), doc.size(), &cycles);
    core_us.push_back(Seconds(t0, Clock::now()) * 1e6);
  }
  enclave::NotaryNative native(kNotaryKeySeed);
  native.Init();
  native.ResetCycles();
  for (const auto& doc : docs) {
    native.Notarize(doc);
  }
  double overhead_us = 0.0;
  for (size_t i = 0; i < docs.size(); ++i) {
    overhead_us += enter_us[i] - core_us[i];
  }
  report.Add("enclave.notary_core_us", Median(core_us), "us");
  report.Add("core.enter_overhead_us", overhead_us / static_cast<double>(docs.size()), "us");
  report.Add("enclave.sim_overhead_pct",
             Ratio(static_cast<double>(enclave_cycles) - static_cast<double>(native.cycles()),
                   static_cast<double>(native.cycles())) *
                 100.0,
             "%");

  report.Add("crypto.sha256_us_per_kB", Sha256UsPerKb(docs), "us/kB");
  crypto::HashDrbg drbg(kNotaryKeySeed);
  const auto t_keygen = Clock::now();
  const crypto::RsaKeyPair key = crypto::RsaGenerateKey(&drbg, 1024);
  report.Add("crypto.rsa_keygen_s", Seconds(t_keygen, Clock::now()), "s");
  const crypto::BigNum m = crypto::BigNum::FromBytesBe(SeededBytes(opts.seed, 100));
  report.Add("crypto.rsa_private_op_us", TimeUs(9, [&] { crypto::RsaPrivateOp(key, m); }), "us");
  report.Add("trace_overhead_frac",
             Ratio(Median(untraced_rate) - Median(traced_rate), Median(untraced_rate)), "ratio");
  return report;
}

// ============================================================================
// fuzz-campaign
// ============================================================================

namespace {

fuzz::CampaignOptions CampaignOptionsFor(const FuzzShape& shape, uint64_t seed) {
  fuzz::CampaignOptions o;
  o.seed = seed;
  o.calls = shape.calls;
  o.trace_len = shape.trace_len;
  o.shards = 4;
  o.jobs = 1;
  return o;
}

// Replays the pokes and SMCs of a generated trace on `w` (as the oracles do,
// without the victim and driver enclaves) and returns the simulated cycles
// of each SMC.
std::vector<uint64_t> ReplayCalls(const fuzz::Trace& t, os::World& w) {
  std::vector<uint64_t> cycles;
  for (const fuzz::TraceOp& op : t.ops) {
    if (op.kind == fuzz::OpKind::kPoke) {
      w.os.WriteInsecure(op.a[0] % (arm::kInsecureSize / arm::kPageSize),
                         op.a[1] % arm::kWordsPerPage, op.a[2]);
    } else if (op.kind == fuzz::OpKind::kSmc) {
      const uint64_t before = w.machine.cycles.total();
      w.os.Smc(op.a[0], op.a[1], op.a[2], op.a[3], op.a[4]);
      cycles.push_back(w.machine.cycles.total() - before);
    }
  }
  return cycles;
}

// The probe traces: the first trace of a shard of an oracle's stream.
fuzz::Trace ProbeTrace(const std::string& oracle, const FuzzShape& shape, uint64_t seed,
                       uint32_t shard = 0) {
  return fuzz::GenerateTrace(oracle, fuzz::ShardTraceSeed(seed, shard, 0), shape.trace_len);
}

}  // namespace

std::string FuzzCampaignHash(const FuzzShape& shape, uint64_t seed, bool* failed) {
  const fuzz::CampaignResult r = fuzz::RunCampaign(CampaignOptionsFor(shape, seed));
  *failed = r.failed;
  return r.failed ? std::string() : r.hash;
}

Report RunFuzzCampaign(const RunOptions& opts) {
  const FuzzShape shape;
  Report report;
  const auto start = Clock::now();

  // Set-up the campaign pays per worker: booting a pooled world and taking
  // its post-boot snapshot.
  HostMeter meter;
  std::vector<double> setup_s;
  for (int i = 0; i < 9; ++i) {
    const HostMeter::Mark m = meter.Start();
    fuzz::WorldPool pool;
    fuzz::WorldPool::Lease lease = pool.Acquire(24);
    setup_s.push_back(meter.Scaled(m));
  }

  // The same campaign repeats while another is expected to end inside the
  // window; each repetition must reproduce the first one's hash.
  std::vector<double> time_ms, rate, speed;
  double last_wall_s = 0.0;
  std::string hash;
  fuzz::CampaignResult last;
  while (rate.empty() || Seconds(start, Clock::now()) + last_wall_s <= opts.seconds) {
    const auto w0 = Clock::now();
    const HostMeter::Mark m = meter.Start();
    fuzz::CampaignResult r = fuzz::RunCampaign(CampaignOptionsFor(shape, opts.seed));
    speed.push_back(meter.Speed(m));
    const double scaled_s = meter.Scaled(m);
    last_wall_s = Seconds(w0, Clock::now());
    uint64_t calls = 0;
    for (const fuzz::OracleStats& s : r.stats) {
      calls += s.calls;
    }
    report.attempted += calls;
    if (r.failed) {
      ++report.failed;
      report.problems.push_back("campaign failure: " + r.verdict.detail);
      return report;
    }
    if (hash.empty()) {
      hash = r.hash;
    } else if (r.hash != hash) {
      report.problems.push_back("campaign hash changed between repetitions");
      return report;
    }
    time_ms.push_back(scaled_s * 1e3);
    rate.push_back(static_cast<double>(calls) / scaled_s);
    last = std::move(r);
  }
  std::printf("fuzz-campaign: repetitions=%zu host_speed=%.4f campaign_hash=%s\n", rate.size(),
              Median(speed), hash.c_str());

  if (!opts.trace) {
    // Simulated cycles per monitor call, over the SMCs of the first
    // generated trace of 16 shard streams of every oracle, each replayed on
    // a pristine pooled world.
    std::vector<uint64_t> cycles;
    fuzz::WorldPool pool;
    for (const std::string& oracle : fuzz::OracleNames()) {
      for (uint32_t shard = 0; shard < 16; ++shard) {
        const fuzz::Trace t = ProbeTrace(oracle, shape, opts.seed, shard);
        fuzz::WorldPool::Lease lease = pool.Acquire(t.pages);
        const std::vector<uint64_t> c = ReplayCalls(t, lease.world());
        cycles.insert(cycles.end(), c.begin(), c.end());
      }
    }
    AddCommon(report, Median(setup_s), Median(rate), Median(time_ms), Pct(time_ms, 99),
              Pct(cycles, 50), Pct(cycles, 99));
    return report;
  }

  double cpu_total = 0.0;
  for (const fuzz::OracleStats& s : last.stats) {
    cpu_total += s.cpu_seconds;
  }
  for (const fuzz::OracleStats& s : last.stats) {
    report.Add("fuzz." + s.oracle + ".calls_per_s",
               Ratio(static_cast<double>(s.calls), s.cpu_seconds), "1/s");
    report.Add("fuzz." + s.oracle + ".cpu_share", Ratio(s.cpu_seconds, cpu_total), "ratio");
  }
  report.Add("fuzz.worlds_built", static_cast<double>(last.worlds_built), "count");
  report.Add("fuzz.pages_per_reset",
             Ratio(static_cast<double>(last.pages_restored),
                   static_cast<double>(last.worlds_reused)),
             "count");

  // Single-layer probes on worlds after replaying generated traces: the
  // interp oracle's machine compare, the noninterference oracle's ≈adv
  // relation, and the spec extraction both oracles run.
  const fuzz::Trace interp = ProbeTrace("interp", shape, opts.seed);
  os::World a(interp.pages, fuzz::FuzzMonitorConfig());
  os::World b(interp.pages, fuzz::FuzzMonitorConfig());
  ReplayCalls(interp, a);
  ReplayCalls(interp, b);
  size_t diffs = 0;
  report.Add("fuzz.machine_diff_us",
             TimeUs(15, [&] { diffs += fuzz::MachineDiff(a.machine, b.machine).size(); }), "us");

  const fuzz::Trace ni = ProbeTrace("noninterference", shape, opts.seed);
  os::World c(ni.pages, fuzz::FuzzMonitorConfig());
  os::World d(ni.pages, fuzz::FuzzMonitorConfig());
  ReplayCalls(ni, c);
  ReplayCalls(ni, d);
  std::optional<spec::PageDb> dc, dd;
  report.Add("spec.extract_us", TimeUs(15, [&] { dc = spec::TryExtractPageDb(c.machine); }),
             "us");
  dd = spec::TryExtractPageDb(d.machine);
  if (!dc.has_value() || !dd.has_value()) {
    report.problems.push_back("spec extraction failed on a replayed world");
    return report;
  }
  report.Add("spec.adv_equiv_us", TimeUs(15, [&] {
               diffs += spec::AdvEquivViolations(c.machine, *dc, d.machine, *dd, kInvalidPage)
                            .size();
             }),
             "us");
  if (diffs != 0) {
    report.problems.push_back("identical replays compared unequal");
  }
  report.Add("fuzz.generate_us",
             TimeUs(15, [&] { ProbeTrace("refinement", shape, opts.seed + 1); }), "us");
  // The campaign's worlds belong to RunCampaign, so nothing in the timed
  // call can be traced from outside: the traced run times the same code.
  report.Add("trace_overhead_frac", 0.0, "ratio");
  return report;
}

// ============================================================================
// verify-small
// ============================================================================

namespace {

constexpr uint64_t kSmallStates = 2874;
constexpr const char* kSmallClosureHash =
    "99065585178cb71f885bfa8ba99bf856dc77b6245624a671f044a030b2640e31";

// A short build path from boot: one addrspace with an L2 table and a thread,
// then finalised — a state in the middle of the small world's space.
std::vector<verify::VerifyOp> ProbePath() {
  auto smc = [](word call, word a1, word a2, word a3 = 0) {
    verify::VerifyOp op;
    op.call = call;
    op.args = {a1, a2, a3, 0};
    return op;
  };
  return {smc(kSmcInitAddrspace, 0, 1), smc(kSmcInitL2Table, 0, 2, 0),
          smc(kSmcInitThread, 0, 3, os::kEnclaveCodeVa), smc(kSmcFinalise, 0, 0)};
}

}  // namespace

Report RunVerifySmall(const RunOptions& opts) {
  Report report;
  const verify::WorldSpec spec;
  const auto start = Clock::now();

  // Set-up Explore pays before its search: booting the concrete world it
  // replays paths on.
  HostMeter meter;
  std::vector<double> setup_s;
  for (int i = 0; i < 9; ++i) {
    const HostMeter::Mark m = meter.Start();
    verify::ConcreteWorld w(spec);
    setup_s.push_back(meter.Scaled(m));
  }

  // Whole explorations, as many as are expected to end inside the window
  // (at least one).
  std::vector<double> time_ms, rate, speed;
  double last_wall_s = 0.0;
  verify::ExploreResult last;
  while (rate.empty() || Seconds(start, Clock::now()) + last_wall_s <= opts.seconds) {
    const auto w0 = Clock::now();
    const HostMeter::Mark m = meter.Start();
    verify::ExploreResult r = verify::Explore(spec);
    speed.push_back(meter.Speed(m));
    const double scaled_s = meter.Scaled(m);
    last_wall_s = Seconds(w0, Clock::now());
    report.attempted += r.transitions;
    if (!r.ok || r.states != kSmallStates || r.closure_hash != kSmallClosureHash) {
      ++report.failed;
      report.problems.push_back("verify: ok=" + std::to_string(r.ok) + " states=" +
                                std::to_string(r.states) + " hash=" + r.closure_hash +
                                (r.failure ? " failure: " + r.failure->detail : "") +
                                r.harness_error);
      return report;
    }
    time_ms.push_back(scaled_s * 1e3);
    rate.push_back(static_cast<double>(r.transitions) / scaled_s);
    last = std::move(r);
  }
  std::printf(
      "verify-small: explorations=%zu host_speed=%.4f states=%llu transitions=%llu "
      "closure_hash=%s\n",
      rate.size(), Median(speed), static_cast<unsigned long long>(last.states),
      static_cast<unsigned long long>(last.transitions), last.closure_hash.c_str());

  // Probe state: the build path replayed on a concrete world of the small
  // world's geometry.
  verify::ConcreteWorld world(spec);
  world.PreparePath(ProbePath());
  world.ResetToMid();

  if (!opts.trace) {
    // Simulated cycles of single transitions from the probe state: every
    // SMC of the registry with its first two arguments over the world's
    // page numbers.
    std::vector<uint64_t> cycles;
    for (const CallInfo& c : kSmcCalls) {
      for (word a1 = 0; a1 < spec.pages; ++a1) {
        for (word a2 = 0; a2 < spec.pages; ++a2) {
          verify::VerifyOp op;
          op.call = c.number;
          op.args = {a1, a2, 0, 0};
          world.ResetToMid();
          const uint64_t before = world.machine().cycles.total();
          world.RunStaged(op);
          cycles.push_back(world.machine().cycles.total() - before);
        }
      }
    }
    AddCommon(report, Median(setup_s), Median(rate), Median(time_ms), Pct(time_ms, 99),
              Pct(cycles, 50), Pct(cycles, 99));
    return report;
  }

  report.Add("verify.states", static_cast<double>(last.states), "count");
  report.Add("verify.transitions", static_cast<double>(last.transitions), "count");
  report.Add("verify.clipped", static_cast<double>(last.clipped), "count");
  std::optional<spec::PageDb> db;
  report.Add("spec.extract_us",
             TimeUs(101, [&] { db = spec::TryExtractPageDb(world.machine()); }), "us");
  if (!db.has_value()) {
    report.problems.push_back("spec extraction failed on the probe state");
    return report;
  }
  std::string key;
  report.Add("verify.canonical_key_us", TimeUs(101, [&] { key = verify::CanonicalKey(*db); }),
             "us");
  // Explore's worlds are its own, so the traced run times the same code.
  report.Add("trace_overhead_frac", 0.0, "ratio");
  return report;
}

}  // namespace perfbench
