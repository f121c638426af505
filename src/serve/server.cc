#include "src/serve/server.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/obs/json.h"

namespace komodo::serve {

namespace {

// Secure-page footprint of a catalog enclave (addrspace + L1 + one L2 +
// thread + code/data/stack pages), used to pre-charge the budget before the
// actual handle exists. All catalog programs fit the conventional layout.
constexpr word kEnclavePages = 7;

}  // namespace

const char* ServeErrName(ServeErr e) {
  switch (e) {
    case ServeErr::kNone: return "none";
    case ServeErr::kUnknownProgram: return "unknown-program";
    case ServeErr::kUnknownSession: return "unknown-session";
    case ServeErr::kUnknownRequest: return "unknown-request";
    case ServeErr::kQueueFull: return "queue-full";
  }
  return "?";
}

const char* RequestFailureName(RequestFailure f) {
  switch (f) {
    case RequestFailure::kNone: return "none";
    case RequestFailure::kTimeout: return "timeout";
    case RequestFailure::kEnclaveFault: return "enclave-fault";
    case RequestFailure::kMonitorDenied: return "monitor-denied";
    case RequestFailure::kBuildFailed: return "build-failed";
    case RequestFailure::kSessionDestroyed: return "session-destroyed";
  }
  return "?";
}

Monitor::Config Server::MonitorConfigFor(const Config& config) {
  Monitor::Config mc;
  mc.max_enclave_steps = config.steps_per_slice;
  // The §8.1 monitor fast paths (flush skipping + lazy banked registers).
  mc.opt_skip_redundant_tlb_flush = true;
  mc.opt_lazy_banked_regs = true;
  return mc;
}

Server::Server(ProgramCatalog catalog, const Config& config)
    : catalog_(std::move(catalog)),
      config_(config),
      world_(config.nsecure_pages, MonitorConfigFor(config)) {}

Expected<SessionId, ServeErr> Server::CreateSession(const std::string& program) {
  const CatalogEntry* entry = catalog_.Find(program);
  if (entry == nullptr) {
    return ServeErr::kUnknownProgram;
  }
  const SessionId sid = next_session_++;
  Session s;
  s.program = program;
  s.entry = entry;
  s.shared_pgnr = world_.os.AllocInsecurePage();
  sessions_.emplace(sid, std::move(s));
  ++stats_.sessions_created;
  return sid;
}

Expected<word, ServeErr> Server::DestroySession(SessionId session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return ServeErr::kUnknownSession;
  }
  Session& s = it->second;
  word dropped = 0;
  std::deque<Pending> rest;
  for (const Pending& p : queue_) {
    if (p.session == session) {
      Fail(p, RequestFailure::kSessionDestroyed, 0, KomErr::kSuccess);
      ++dropped;
    } else {
      rest.push_back(p);
    }
  }
  queue_ = std::move(rest);
  if (s.built) {
    resident_pages_ -= s.enclave.SecurePageCount();
    world_.os.DestroyEnclave(s.enclave);
  }
  world_.os.FreeInsecurePage(s.shared_pgnr);
  sessions_.erase(it);
  ++stats_.sessions_destroyed;
  return dropped;
}

Expected<RequestId, ServeErr> Server::Submit(SessionId session, word arg) {
  if (sessions_.find(session) == sessions_.end()) {
    return ServeErr::kUnknownSession;
  }
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.queue_full_rejections;
    return ServeErr::kQueueFull;
  }
  const RequestId rid = next_request_++;
  queue_.push_back({rid, session, arg, world_.machine.cycles.total()});
  ++stats_.requests_submitted;
  stats_.queue_depth_hwm = std::max<uint64_t>(stats_.queue_depth_hwm, queue_.size());
  return rid;
}

const RequestResult* Server::Poll(RequestId request) const {
  const auto it = done_.find(request);
  return it == done_.end() ? nullptr : &it->second;
}

Expected<RequestResult, ServeErr> Server::Wait(RequestId request) {
  while (true) {
    if (const RequestResult* r = Poll(request)) {
      return *r;
    }
    const bool queued = std::any_of(queue_.begin(), queue_.end(),
                                    [&](const Pending& p) { return p.id == request; });
    if (!queued) {
      return ServeErr::kUnknownRequest;
    }
    PumpOne();
  }
}

bool Server::session_built(SessionId session) const {
  const auto it = sessions_.find(session);
  return it != sessions_.end() && it->second.built;
}

void Server::Evict(Session& s) {
  resident_pages_ -= s.enclave.SecurePageCount();
  world_.os.DestroyEnclave(s.enclave);
  s.enclave = os::EnclaveHandle{};
  s.built = false;
}

KomErr Server::EnsureBuilt(SessionId sid, Session& s) {
  if (s.built) {
    return KomErr::kSuccess;
  }
  // LRU-evict idle built sessions until the new enclave fits the budget.
  while (resident_pages_ + kEnclavePages > config_.secure_page_budget) {
    SessionId victim = 0;
    uint64_t oldest = ~0ull;
    for (auto& [other_id, other] : sessions_) {
      if (other_id != sid && other.built && other.last_used < oldest) {
        oldest = other.last_used;
        victim = other_id;
      }
    }
    if (victim == 0) {
      // Nothing left to evict: the budget cannot fit even this one enclave.
      return KomErr::kInvalidArgument;
    }
    Evict(sessions_.at(victim));
    ++stats_.evictions;
  }
  auto built = world_.os.NewEnclave().Code(s.entry->code).SharedPage(s.shared_pgnr).Build();
  if (!built.ok()) {
    return built.error();
  }
  s.enclave = *std::move(built);
  s.built = true;
  resident_pages_ += s.enclave.SecurePageCount();
  ++s.builds;
  if (s.builds > 1) {
    ++stats_.rebuilds;
  }
  return KomErr::kSuccess;
}

void Server::Complete(const Pending& p, word value) {
  RequestResult r;
  r.ok = true;
  r.value = value;
  r.latency_cycles = world_.machine.cycles.total() - p.submit_cycles;
  stats_.request_latency_cycles.Add(r.latency_cycles);
  ++stats_.requests_completed;
  done_.emplace(p.id, r);
}

void Server::Fail(const Pending& p, RequestFailure failure, word value, KomErr err) {
  RequestResult r;
  r.ok = false;
  r.failure = failure;
  r.value = value;
  r.err = err;
  r.latency_cycles = world_.machine.cycles.total() - p.submit_cycles;
  ++stats_.requests_failed;
  done_.emplace(p.id, r);
}

void Server::ExecuteRound(SessionId sid, Session& s, std::vector<Pending>& batch) {
  const KomErr build_err = EnsureBuilt(sid, s);
  if (build_err != KomErr::kSuccess) {
    for (const Pending& p : batch) {
      Fail(p, RequestFailure::kBuildFailed, 0, build_err);
    }
    return;
  }

  auto& os = world_.os;
  os::EnterResult r;
  if (s.entry->batch_abi) {
    const word n = static_cast<word>(batch.size());
    os.WriteInsecure(s.shared_pgnr, 0, n);
    for (word i = 0; i < n; ++i) {
      os.WriteInsecure(s.shared_pgnr, 1 + i, batch[i].arg);
    }
    r = os.Enter(s.enclave.thread);
  } else {
    r = os.Enter(s.enclave.thread, batch[0].arg);
  }
  ++stats_.enters;
  ++stats_.world_switches;

  // `slices` counts execution slices already consumed, and the initial Enter
  // is the first one — so timeout_slices is the *total* slice budget, not a
  // resume count. At the boundary, timeout_slices=1 means one Enter and zero
  // Resumes: a request still interrupted after its first slice times out
  // immediately. (Audited against an off-by-one suspicion: the accounting is
  // correct; the boundary test pins it.)
  word slices = 1;
  while (r.interrupted()) {
    if (slices >= config_.timeout_slices) {
      // The thread is wedged mid-run; destroy the enclave so the session can
      // be rebuilt fresh on its next request.
      for (const Pending& p : batch) {
        Fail(p, RequestFailure::kTimeout, 0, KomErr::kInterrupted);
      }
      Evict(s);
      return;
    }
    r = os.Resume(s.enclave.thread);
    ++stats_.resumes;
    ++stats_.world_switches;
    ++slices;
  }

  if (r.exited()) {
    for (word i = 0; i < static_cast<word>(batch.size()); ++i) {
      const word value = s.entry->batch_abi ? os.ReadInsecure(s.shared_pgnr, 33 + i)
                                            : r.payload;
      Complete(batch[i], value);
    }
  } else if (r.faulted()) {
    for (const Pending& p : batch) {
      Fail(p, RequestFailure::kEnclaveFault, r.payload, r.err);
    }
  } else {
    for (const Pending& p : batch) {
      Fail(p, RequestFailure::kMonitorDenied, r.payload, r.err);
    }
  }
}

bool Server::PumpOne() {
  if (queue_.empty()) {
    return false;
  }
  const SessionId sid = queue_.front().session;
  Session& s = sessions_.at(sid);
  const size_t max_batch =
      (config_.batching && s.entry->batch_abi) ? static_cast<size_t>(kServeBatchMax) : 1;

  std::vector<Pending> batch;
  std::deque<Pending> rest;
  for (const Pending& p : queue_) {
    if (p.session == sid && batch.size() < max_batch) {
      batch.push_back(p);
    } else {
      rest.push_back(p);
    }
  }
  queue_ = std::move(rest);

  s.last_used = ++round_clock_;
  ++stats_.batches;
  stats_.batched_requests += batch.size();
  stats_.batch_size.Add(batch.size());
  ExecuteRound(sid, s, batch);
  return true;
}

void Server::Drain() {
  while (PumpOne()) {
  }
}

std::string Server::ExportMetrics() const {
  const obs::Observability& obs = world_.monitor.obs();
  std::string out;
  obs::JsonWriter w(&out);
  w.BeginObject();
  w.KV("schema", "komodo-metrics-v1");
  w.Key("counters");
  obs::WriteCountersJson(w, obs.counters());
  w.Key("smc");
  obs::WriteCallStatsJson(w, obs.smc_stats());
  w.Key("svc");
  obs::WriteCallStatsJson(w, obs.svc_stats());
  w.Key("serve");
  w.BeginObject();
  w.KV("sessions_created", stats_.sessions_created);
  w.KV("sessions_destroyed", stats_.sessions_destroyed);
  w.KV("requests_submitted", stats_.requests_submitted);
  w.KV("requests_completed", stats_.requests_completed);
  w.KV("requests_failed", stats_.requests_failed);
  w.KV("queue_full_rejections", stats_.queue_full_rejections);
  w.KV("queue_depth_hwm", stats_.queue_depth_hwm);
  w.KV("enters", stats_.enters);
  w.KV("resumes", stats_.resumes);
  w.KV("world_switches", stats_.world_switches);
  w.KV("batches", stats_.batches);
  w.KV("batched_requests", stats_.batched_requests);
  w.KV("evictions", stats_.evictions);
  w.KV("rebuilds", stats_.rebuilds);
  w.KV("resident_pages", static_cast<uint64_t>(resident_pages_));
  w.Key("request_latency_cycles");
  obs::WriteHistogramJson(w, stats_.request_latency_cycles);
  w.Key("batch_size");
  obs::WriteHistogramJson(w, stats_.batch_size);
  w.EndObject();
  w.EndObject();
  return out;
}

bool Server::WriteMetrics(const std::string& path) const {
  const std::string content = ExportMetrics();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const size_t n = std::fwrite(content.data(), 1, content.size(), f);
  const int rc = std::fclose(f);
  return n == content.size() && rc == 0;
}

}  // namespace komodo::serve
