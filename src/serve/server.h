// komodo-serve (DESIGN.md §14): a long-running daemon model that multiplexes
// many concurrent enclave sessions over one Komodo world on one core —
// the role a hosting OS plays above the monitor.
//
//   CreateSession(program)  pick a program from the catalog; allocate the
//                           session's shared insecure page (stable across
//                           rebuilds — it is the client-visible buffer)
//   Submit(session, arg)    enqueue a request into the bounded submission
//                           queue (kQueueFull backpressure when at capacity)
//   Poll / Wait             observe or drive a request to completion
//   DestroySession          fail queued requests, tear the enclave down
//
// Scheduling is deterministic and single-threaded: PumpOne() takes the
// head-of-line request, coalesces every queued request of the same session
// (up to kServeBatchMax when the program speaks the batch ABI) into ONE
// world switch, and executes it. Under a secure-page budget, idle sessions
// are LRU-evicted (Stop + Remove of all their secure pages) and rebuilt
// from the catalog on demand — rebuilt enclaves restart from their measured
// initial state, exactly as a freshly booted Komodo enclave would; nothing
// survives eviction except the shared insecure page.
//
// Requests that exceed the timeout budget (timeout_slices interrupted
// entries of steps_per_slice interpreted steps each) fail with kTimeout and
// the wedged enclave is destroyed. All failures are typed (RequestFailure),
// never raw ABI words.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/expected.h"
#include "src/obs/trace.h"
#include "src/os/world.h"
#include "src/serve/catalog.h"

namespace komodo::serve {

// Max requests one batch-ABI Enter can service (shared[0]=n, args at
// shared[1..32], results at shared[33..64]; one 1024-word page holds both).
inline constexpr word kServeBatchMax = 32;

using SessionId = word;
using RequestId = word;

enum class ServeErr : word {
  kNone = 0,
  kUnknownProgram,
  kUnknownSession,
  kUnknownRequest,
  kQueueFull,
};

const char* ServeErrName(ServeErr e);

enum class RequestFailure : word {
  kNone = 0,        // completed successfully
  kTimeout,         // exceeded timeout_slices interrupted resumes
  kEnclaveFault,    // enclave took an abort/undef; value = declassified code
  kMonitorDenied,   // monitor refused the Enter/Resume (see err)
  kBuildFailed,     // enclave (re)construction failed (see err)
  kSessionDestroyed,  // DestroySession raced the queued request
};

const char* RequestFailureName(RequestFailure f);

struct RequestResult {
  bool ok = false;
  RequestFailure failure = RequestFailure::kNone;
  word value = 0;             // per-request result / fault code
  KomErr err = KomErr::kSuccess;  // monitor error for kMonitorDenied/kBuildFailed
  uint64_t latency_cycles = 0;    // submit -> completion, simulated cycles
};

struct ServerStats {
  uint64_t sessions_created = 0;
  uint64_t sessions_destroyed = 0;
  uint64_t requests_submitted = 0;
  uint64_t requests_completed = 0;
  uint64_t requests_failed = 0;
  uint64_t queue_full_rejections = 0;
  uint64_t queue_depth_hwm = 0;  // high-water mark of the submission queue
  uint64_t enters = 0;
  uint64_t resumes = 0;
  uint64_t world_switches = 0;  // enters + resumes
  uint64_t batches = 0;         // scheduling rounds that executed
  uint64_t batched_requests = 0;  // requests serviced by those rounds
  uint64_t evictions = 0;
  uint64_t rebuilds = 0;  // builds after the first (post-eviction/timeout)
  obs::Histogram request_latency_cycles;
  obs::Histogram batch_size;
};

class Server {
 public:
  struct Config {
    // Secure pages of the underlying world (hardware) and the serve-layer
    // resident budget (policy; must leave room for at least one enclave).
    word nsecure_pages = arm::kDefaultSecurePages;
    word secure_page_budget = arm::kDefaultSecurePages;
    size_t queue_capacity = 64;
    // Timeout = timeout_slices slices of steps_per_slice interpreted steps,
    // *counting the initial Enter as the first slice*: a request gets
    // timeout_slices - 1 Resumes before it is failed with kTimeout, and
    // timeout_slices = 1 allows no Resume at all.
    uint64_t steps_per_slice = 200'000;
    word timeout_slices = 4;
    // Coalesce same-session requests into one Enter (batch-ABI programs).
    bool batching = true;
  };

  explicit Server(ProgramCatalog catalog) : Server(std::move(catalog), Config{}) {}
  Server(ProgramCatalog catalog, const Config& config);

  Expected<SessionId, ServeErr> CreateSession(const std::string& program);
  // Fails queued requests with kSessionDestroyed; returns how many.
  Expected<word, ServeErr> DestroySession(SessionId session);

  Expected<RequestId, ServeErr> Submit(SessionId session, word arg);
  // nullptr while the request is still queued/executing.
  const RequestResult* Poll(RequestId request) const;
  // Pumps the scheduler until the request completes.
  Expected<RequestResult, ServeErr> Wait(RequestId request);

  // Executes one scheduling round (one session's coalesced batch); returns
  // false when the queue is empty.
  bool PumpOne();
  void Drain();

  size_t queue_depth() const { return queue_.size(); }
  // Secure pages currently charged against the budget by built enclaves.
  word resident_pages() const { return resident_pages_; }
  bool session_built(SessionId session) const;
  const ServerStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  os::World& world() { return world_; }

  // komodo-metrics-v1 document: monitor counters + per-call stats from the
  // world's tracer (zero unless tracing is enabled) plus a "serve" section
  // with the queue/eviction counters and request-latency histogram.
  std::string ExportMetrics() const;
  bool WriteMetrics(const std::string& path) const;

 private:
  struct Session {
    std::string program;
    const CatalogEntry* entry = nullptr;
    bool built = false;
    os::EnclaveHandle enclave;
    word shared_pgnr = 0;      // allocated once; survives rebuilds
    uint64_t last_used = 0;    // LRU clock (scheduling rounds)
    uint64_t builds = 0;
  };

  struct Pending {
    RequestId id;
    SessionId session;
    word arg;
    uint64_t submit_cycles;
  };

  static Monitor::Config MonitorConfigFor(const Config& config);
  // Evicts LRU-idle built sessions (never `sid` itself) until the enclave
  // fits the budget, then builds. kSuccess or the first monitor error.
  KomErr EnsureBuilt(SessionId sid, Session& s);
  void Evict(Session& s);
  void ExecuteRound(SessionId sid, Session& s, std::vector<Pending>& batch);
  void Complete(const Pending& p, word value);
  void Fail(const Pending& p, RequestFailure failure, word value, KomErr err);

  ProgramCatalog catalog_;
  Config config_;
  os::World world_;
  std::map<SessionId, Session> sessions_;
  std::deque<Pending> queue_;
  std::map<RequestId, RequestResult> done_;
  SessionId next_session_ = 1;
  RequestId next_request_ = 1;
  uint64_t round_clock_ = 0;
  word resident_pages_ = 0;
  ServerStats stats_;
};

}  // namespace komodo::serve

#endif  // SRC_SERVE_SERVER_H_
