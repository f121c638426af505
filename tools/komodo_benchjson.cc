// komodo-benchjson: schema validator for the JSON artifacts the bench
// harness and the tracer emit. check.sh runs it over every bench-smoke
// output so a drifting emitter fails CI rather than silently producing
// unparseable artifacts.
//
//   komodo-benchjson FILE...                    auto-detect schema per file
//   komodo-benchjson --schema bench FILE...     force komodo-bench-v1
//   komodo-benchjson --schema metrics FILE...   force komodo-metrics-v1
//   komodo-benchjson --schema chrome FILE...    force chrome-trace format
//
// Exit status: 0 all files valid, 1 any violation, 2 usage/IO error.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/json.h"

namespace {

using komodo::obs::JsonValue;
using komodo::obs::ParseJson;

std::vector<std::string> g_errors;

void Fail(const std::string& where, const std::string& what) {
  g_errors.push_back(where + ": " + what);
}

bool RequireMember(const JsonValue& v, const std::string& where, const char* key,
                   JsonValue::Kind kind, const JsonValue** out = nullptr) {
  const JsonValue* m = v.Find(key);
  if (m == nullptr) {
    Fail(where, std::string("missing key \"") + key + "\"");
    return false;
  }
  if (m->kind != kind) {
    Fail(where, std::string("key \"") + key + "\" has wrong type");
    return false;
  }
  if (out != nullptr) {
    *out = m;
  }
  return true;
}

// The host and build the timings come from: host_cores >= 1, and non-empty
// compiler and build_type strings. Required of every komodo-bench-v1 config.
void ValidateHostConfig(const JsonValue& config, const std::string& where) {
  const JsonValue* cores = nullptr;
  if (RequireMember(config, where, "host_cores", JsonValue::Kind::kNumber, &cores) &&
      cores->number < 1) {
    Fail(where, "host_cores must be at least 1");
  }
  for (const char* key : {"compiler", "build_type"}) {
    const JsonValue* v = nullptr;
    if (RequireMember(config, where, key, JsonValue::Kind::kString, &v) && v->str.empty()) {
      Fail(where, std::string("key \"") + key + "\" is empty");
    }
  }
}

// komodo-bench-v1: {"schema","bench","config":{},"results":[{name,metric,value,unit}]}
void ValidateBench(const JsonValue& root, const std::string& file) {
  const JsonValue* config = nullptr;
  RequireMember(root, file, "bench", JsonValue::Kind::kString);
  if (RequireMember(root, file, "config", JsonValue::Kind::kObject, &config)) {
    ValidateHostConfig(*config, file + " config");
  }
  const JsonValue* results = nullptr;
  if (!RequireMember(root, file, "results", JsonValue::Kind::kArray, &results)) {
    return;
  }
  if (results->items.empty()) {
    Fail(file, "results array is empty");
  }
  for (size_t i = 0; i < results->items.size(); ++i) {
    const JsonValue& r = results->items[i];
    const std::string where = file + " results[" + std::to_string(i) + "]";
    if (!r.IsObject()) {
      Fail(where, "not an object");
      continue;
    }
    RequireMember(r, where, "name", JsonValue::Kind::kString);
    RequireMember(r, where, "metric", JsonValue::Kind::kString);
    RequireMember(r, where, "value", JsonValue::Kind::kNumber);
    RequireMember(r, where, "unit", JsonValue::Kind::kString);
  }
}

void ValidateHistogram(const JsonValue& h, const std::string& where) {
  RequireMember(h, where, "count", JsonValue::Kind::kNumber);
  RequireMember(h, where, "sum", JsonValue::Kind::kNumber);
  RequireMember(h, where, "min", JsonValue::Kind::kNumber);
  RequireMember(h, where, "max", JsonValue::Kind::kNumber);
  RequireMember(h, where, "mean", JsonValue::Kind::kNumber);
  const JsonValue* buckets = nullptr;
  if (!RequireMember(h, where, "log2_buckets", JsonValue::Kind::kArray, &buckets)) {
    return;
  }
  uint64_t total = 0;
  for (const JsonValue& b : buckets->items) {
    if (!b.IsArray() || b.items.size() != 2 || !b.items[0].IsNumber() || !b.items[1].IsNumber()) {
      Fail(where, "log2_buckets entries must be [lower_bound, count] pairs");
      return;
    }
    total += static_cast<uint64_t>(b.items[1].number);
  }
  const JsonValue* count = h.Find("count");
  if (count != nullptr && count->IsNumber() &&
      total != static_cast<uint64_t>(count->number)) {
    Fail(where, "log2_buckets counts do not sum to count");
  }
}

void ValidateCallStatsArray(const JsonValue& arr, const std::string& where) {
  for (size_t i = 0; i < arr.items.size(); ++i) {
    const JsonValue& s = arr.items[i];
    const std::string w = where + "[" + std::to_string(i) + "]";
    if (!s.IsObject()) {
      Fail(w, "not an object");
      continue;
    }
    RequireMember(s, w, "call", JsonValue::Kind::kNumber);
    RequireMember(s, w, "name", JsonValue::Kind::kString);
    RequireMember(s, w, "calls", JsonValue::Kind::kNumber);
    RequireMember(s, w, "errors", JsonValue::Kind::kNumber);
    const JsonValue* cycles = nullptr;
    if (RequireMember(s, w, "cycles", JsonValue::Kind::kObject, &cycles)) {
      ValidateHistogram(*cycles, w + ".cycles");
    }
    RequireMember(s, w, "steps", JsonValue::Kind::kNumber);
    RequireMember(s, w, "wall_ns", JsonValue::Kind::kNumber);
    RequireMember(s, w, "tlb_flushes", JsonValue::Kind::kNumber);
  }
}

// Optional "serve" section a komodo-serve daemon embeds in its metrics
// document: the queue/eviction/batching counters plus two histograms.
void ValidateServeSection(const JsonValue& serve, const std::string& where) {
  for (const char* key :
       {"sessions_created", "sessions_destroyed", "requests_submitted", "requests_completed",
        "requests_failed", "queue_full_rejections", "queue_depth_hwm", "enters", "resumes",
        "world_switches", "batches", "batched_requests", "evictions", "rebuilds",
        "resident_pages"}) {
    RequireMember(serve, where, key, JsonValue::Kind::kNumber);
  }
  const JsonValue* latency = nullptr;
  if (RequireMember(serve, where, "request_latency_cycles", JsonValue::Kind::kObject, &latency)) {
    ValidateHistogram(*latency, where + ".request_latency_cycles");
  }
  const JsonValue* batch = nullptr;
  if (RequireMember(serve, where, "batch_size", JsonValue::Kind::kObject, &batch)) {
    ValidateHistogram(*batch, where + ".batch_size");
  }
  // Internal consistency: enters + resumes must equal world_switches.
  const JsonValue* enters = serve.Find("enters");
  const JsonValue* resumes = serve.Find("resumes");
  const JsonValue* switches = serve.Find("world_switches");
  if (enters != nullptr && resumes != nullptr && switches != nullptr && enters->IsNumber() &&
      resumes->IsNumber() && switches->IsNumber() &&
      enters->number + resumes->number != switches->number) {
    Fail(where, "enters + resumes != world_switches");
  }
}

// komodo-metrics-v1: {"schema","counters":{...},"smc":[...],"svc":[...]}
// plus an optional "serve" section (komodo-serve daemons).
void ValidateMetrics(const JsonValue& root, const std::string& file) {
  const JsonValue* counters = nullptr;
  if (RequireMember(root, file, "counters", JsonValue::Kind::kObject, &counters)) {
    for (const char* key : {"events_recorded", "events_dropped", "smc_calls", "svc_calls",
                            "enclave_entries", "enclave_resumes", "enclave_exits", "exceptions",
                            "tlb_flushes"}) {
      RequireMember(*counters, file + " counters", key, JsonValue::Kind::kNumber);
    }
  }
  const JsonValue* smc = nullptr;
  if (RequireMember(root, file, "smc", JsonValue::Kind::kArray, &smc)) {
    ValidateCallStatsArray(*smc, file + " smc");
  }
  const JsonValue* svc = nullptr;
  if (RequireMember(root, file, "svc", JsonValue::Kind::kArray, &svc)) {
    ValidateCallStatsArray(*svc, file + " svc");
  }
  if (const JsonValue* serve = root.Find("serve")) {
    if (!serve->IsObject()) {
      Fail(file, "key \"serve\" has wrong type");
    } else {
      ValidateServeSection(*serve, file + " serve");
    }
  }
}

// Chrome "Trace Event Format" as emitted by ExportChromeTrace: an object
// with a traceEvents array of M/X/i events carrying ts(+dur) and pid/tid.
void ValidateChrome(const JsonValue& root, const std::string& file) {
  const JsonValue* events = nullptr;
  if (!RequireMember(root, file, "traceEvents", JsonValue::Kind::kArray, &events)) {
    return;
  }
  for (size_t i = 0; i < events->items.size(); ++i) {
    const JsonValue& e = events->items[i];
    const std::string where = file + " traceEvents[" + std::to_string(i) + "]";
    if (!e.IsObject()) {
      Fail(where, "not an object");
      continue;
    }
    const JsonValue* ph = nullptr;
    if (!RequireMember(e, where, "ph", JsonValue::Kind::kString, &ph)) {
      continue;
    }
    RequireMember(e, where, "name", JsonValue::Kind::kString);
    RequireMember(e, where, "pid", JsonValue::Kind::kNumber);
    RequireMember(e, where, "tid", JsonValue::Kind::kNumber);
    if (ph->str == "X") {
      RequireMember(e, where, "ts", JsonValue::Kind::kNumber);
      RequireMember(e, where, "dur", JsonValue::Kind::kNumber);
    } else if (ph->str == "i") {
      RequireMember(e, where, "ts", JsonValue::Kind::kNumber);
    } else if (ph->str != "M") {
      Fail(where, "unexpected event phase \"" + ph->str + "\"");
    }
  }
}

int ValidateFile(const std::string& path, const std::string& forced_schema) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "komodo-benchjson: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string error;
  const auto parsed = ParseJson(ss.str(), &error);
  if (!parsed.has_value()) {
    Fail(path, "invalid JSON: " + error);
    return 1;
  }
  const JsonValue& root = *parsed;
  if (!root.IsObject()) {
    Fail(path, "top-level value is not an object");
    return 1;
  }

  std::string schema = forced_schema;
  if (schema.empty()) {
    if (const JsonValue* s = root.Find("schema"); s != nullptr && s->IsString()) {
      if (s->str == "komodo-bench-v1") {
        schema = "bench";
      } else if (s->str == "komodo-metrics-v1") {
        schema = "metrics";
      }
    }
    if (schema.empty() && root.Find("traceEvents") != nullptr) {
      schema = "chrome";
    }
    if (schema.empty()) {
      Fail(path, "unrecognized schema (no komodo-* \"schema\" key or \"traceEvents\")");
      return 1;
    }
  }

  const size_t before = g_errors.size();
  if (schema == "bench") {
    const JsonValue* s = root.Find("schema");
    if (s == nullptr || !s->IsString() || s->str != "komodo-bench-v1") {
      Fail(path, "schema key is not \"komodo-bench-v1\"");
    }
    ValidateBench(root, path);
  } else if (schema == "metrics") {
    const JsonValue* s = root.Find("schema");
    if (s == nullptr || !s->IsString() || s->str != "komodo-metrics-v1") {
      Fail(path, "schema key is not \"komodo-metrics-v1\"");
    }
    ValidateMetrics(root, path);
  } else if (schema == "chrome") {
    ValidateChrome(root, path);
  } else {
    std::fprintf(stderr, "komodo-benchjson: unknown schema \"%s\"\n", schema.c_str());
    return 2;
  }
  return g_errors.size() == before ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string forced;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--schema") == 0 && i + 1 < argc) {
      forced = argv[++i];
    } else if (std::strcmp(argv[i], "--chrome") == 0) {
      forced = "chrome";
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: komodo-benchjson [--schema bench|metrics|chrome] file.json...\n");
    return 2;
  }
  int rc = 0;
  for (const std::string& f : files) {
    const int r = ValidateFile(f, forced);
    if (r > rc) {
      rc = r;
    }
  }
  for (const std::string& e : g_errors) {
    std::fprintf(stderr, "komodo-benchjson: %s\n", e.c_str());
  }
  if (rc == 0) {
    std::printf("komodo-benchjson: %zu file(s) valid\n", files.size());
  }
  return rc;
}
