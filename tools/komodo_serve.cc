// komodo-serve: CLI front end for the serve daemon (DESIGN.md §14).
//
//   komodo-serve --demo
//       Scripted showcase: a few sessions, batched submissions, one timeout.
//   komodo-serve --stdin [--metrics-out FILE]
//       Line-protocol daemon loop on stdin/stdout (the check.sh smoke):
//         create <program>      -> session <id>
//         submit <sid> <arg>    -> request <id> | error <reason>
//         wait <rid>            -> result <rid> ok <value> | result <rid> fail <failure>
//         drain                 -> drained
//         destroy <sid>         -> destroyed <sid> dropped <n>
//         stats                 -> one-line counter summary
//         quit
//       A missing, malformed (e.g. negative) or extra operand of submit, wait
//       or destroy answers `error bad-argument`.
//   komodo-serve --load [--sessions N] [--requests M] [--seed S] [--budget P]
//                [--no-batch] [--metrics-out FILE]
//       Deterministic seeded load generator; prints the stats summary.
//
// Exit status: 0 on success, 1 on a failed demo expectation, 2 on usage/IO.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/serve/server.h"
#include "src/util/checked_parse.h"
#include "tools/cli_util.h"

namespace {

using komodo::word;
using komodo::serve::DefaultCatalog;
using komodo::serve::RequestFailureName;
using komodo::serve::RequestId;
using komodo::serve::RequestResult;
using komodo::serve::ServeErrName;
using komodo::serve::Server;
using komodo::serve::SessionId;

void PrintStats(const Server& server) {
  const auto& st = server.stats();
  std::printf(
      "stats sessions %" PRIu64 "/%" PRIu64 " requests %" PRIu64 " completed %" PRIu64
      " failed %" PRIu64 " world-switches %" PRIu64 " batches %" PRIu64 " evictions %" PRIu64
      " rebuilds %" PRIu64 " queue-hwm %" PRIu64 "\n",
      st.sessions_created, st.sessions_destroyed, st.requests_submitted, st.requests_completed,
      st.requests_failed, st.world_switches, st.batches, st.evictions, st.rebuilds,
      st.queue_depth_hwm);
}

int WriteMetricsIfAsked(const Server& server, const std::string& path) {
  if (path.empty()) {
    return 0;
  }
  if (!server.WriteMetrics(path)) {
    std::fprintf(stderr, "komodo-serve: cannot write %s\n", path.c_str());
    return 2;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int RunDemo(const std::string& metrics_out) {
  Server::Config config;
  config.nsecure_pages = 64;
  config.secure_page_budget = 15;  // two resident enclaves -> eviction visible
  config.steps_per_slice = 2000;
  Server server(DefaultCatalog(), config);

  const SessionId counter = *server.CreateSession("counter");
  const SessionId echo = *server.CreateSession("echo");
  const SessionId spin = *server.CreateSession("spin");

  std::printf("komodo-serve demo: 3 sessions (counter, echo, spin)\n");
  std::vector<RequestId> rids;
  for (word i = 1; i <= 4; ++i) {
    rids.push_back(*server.Submit(counter, i));
  }
  rids.push_back(*server.Submit(echo, 21));
  server.Drain();
  for (RequestId rid : rids) {
    const RequestResult* r = server.Poll(rid);
    std::printf("request %u -> %s %u\n", rid, r->ok ? "ok" : RequestFailureName(r->failure),
                r->value);
  }
  // counter state: 1+2+3+4 = 10 after one batched Enter.
  const bool counter_ok = server.Poll(rids[3])->value == 10;
  const bool echo_ok = server.Poll(rids[4])->value == 43;

  // The spin session wedges and times out; the daemon keeps serving.
  const RequestResult spin_r = *server.Wait(*server.Submit(spin, 0));
  std::printf("spin request -> %s (typed timeout, enclave destroyed)\n",
              RequestFailureName(spin_r.failure));
  const RequestResult after = *server.Wait(*server.Submit(counter, 5));
  std::printf("counter after spin timeout -> %u\n", after.value);

  PrintStats(server);
  const int rc = WriteMetricsIfAsked(server, metrics_out);
  if (rc != 0) {
    return rc;
  }
  const bool ok = counter_ok && echo_ok &&
                  spin_r.failure == komodo::serve::RequestFailure::kTimeout && after.ok;
  std::printf("demo %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

// Reads one unsigned 32-bit operand per pointer from the rest of a protocol
// line. False on a missing, malformed or out-of-range operand, or on a
// trailing token.
bool ReadOperands(std::istringstream& in, std::initializer_list<word*> operands) {
  std::string token;
  for (word* operand : operands) {
    if (!(in >> token) || !komodo::TryParseU32(token.c_str(), operand)) {
      return false;
    }
  }
  return !(in >> token);
}

int RunStdin(const std::string& metrics_out) {
  Server server(DefaultCatalog());
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd.empty() || cmd[0] == '#') {
      continue;
    }
    if (cmd == "quit") {
      break;
    }
    if (cmd == "create") {
      std::string program;
      in >> program;
      auto sid = server.CreateSession(program);
      if (sid.ok()) {
        std::printf("session %u\n", *sid);
      } else {
        std::printf("error %s\n", ServeErrName(sid.error()));
      }
    } else if (cmd == "submit") {
      SessionId sid = 0;
      word arg = 0;
      if (!ReadOperands(in, {&sid, &arg})) {
        std::printf("error bad-argument\n");
      } else if (auto rid = server.Submit(sid, arg); rid.ok()) {
        std::printf("request %u\n", *rid);
      } else {
        std::printf("error %s\n", ServeErrName(rid.error()));
      }
    } else if (cmd == "wait") {
      RequestId rid = 0;
      if (!ReadOperands(in, {&rid})) {
        std::printf("error bad-argument\n");
      } else if (auto r = server.Wait(rid); !r.ok()) {
        std::printf("error %s\n", ServeErrName(r.error()));
      } else if (r->ok) {
        std::printf("result %u ok %u\n", rid, r->value);
      } else {
        std::printf("result %u fail %s\n", rid, RequestFailureName(r->failure));
      }
    } else if (cmd == "drain") {
      server.Drain();
      std::printf("drained\n");
    } else if (cmd == "destroy") {
      SessionId sid = 0;
      if (!ReadOperands(in, {&sid})) {
        std::printf("error bad-argument\n");
      } else if (auto dropped = server.DestroySession(sid); dropped.ok()) {
        std::printf("destroyed %u dropped %u\n", sid, *dropped);
      } else {
        std::printf("error %s\n", ServeErrName(dropped.error()));
      }
    } else if (cmd == "stats") {
      PrintStats(server);
    } else {
      std::printf("error unknown-command\n");
    }
    std::fflush(stdout);
  }
  return WriteMetricsIfAsked(server, metrics_out);
}

int RunLoad(word sessions, word requests, uint64_t seed, word budget, bool batching,
            const std::string& metrics_out) {
  Server::Config config;
  config.nsecure_pages = 256;
  config.secure_page_budget = budget;
  config.queue_capacity = 256;
  config.batching = batching;
  Server server(DefaultCatalog(), config);

  std::vector<SessionId> sids;
  sids.reserve(sessions);
  for (word i = 0; i < sessions; ++i) {
    sids.push_back(*server.CreateSession(i % 2 == 0 ? "counter" : "echo"));
  }
  uint64_t x = seed != 0 ? seed : 1;
  auto rnd = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  word submitted = 0;
  while (submitted < requests) {
    const SessionId sid = sids[rnd() % sids.size()];
    if (server.Submit(sid, static_cast<word>(rnd() % 997)).ok()) {
      ++submitted;
    } else {
      server.Drain();
    }
  }
  server.Drain();
  PrintStats(server);
  const auto& st = server.stats();
  std::printf("world-switches-per-request %.3f\n",
              st.requests_completed == 0
                  ? 0.0
                  : static_cast<double>(st.world_switches) /
                        static_cast<double>(st.requests_completed));
  return WriteMetricsIfAsked(server, metrics_out);
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode;
  std::string metrics_out;
  word sessions = 100;
  word requests = 1000;
  word budget = 35;
  uint64_t seed = 20260809;
  bool batching = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "komodo-serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--demo" || arg == "--stdin" || arg == "--load") {
      mode = arg;
    } else if (arg == "--metrics-out") {
      metrics_out = next();
    } else if (arg == "--sessions") {
      sessions = static_cast<word>(
          komodo::cli::ParseU64("komodo-serve", "--sessions", next(), 1, 1 << 20));
    } else if (arg == "--requests") {
      requests = static_cast<word>(
          komodo::cli::ParseU64("komodo-serve", "--requests", next(), 1, 1 << 28));
    } else if (arg == "--budget") {
      budget = static_cast<word>(
          komodo::cli::ParseU64("komodo-serve", "--budget", next(), 1, 1 << 20));
    } else if (arg == "--seed") {
      seed = komodo::cli::ParseU64("komodo-serve", "--seed", next());
    } else if (arg == "--no-batch") {
      batching = false;
    } else {
      std::fprintf(stderr,
                   "usage: komodo-serve --demo | --stdin | --load [--sessions N] [--requests M]"
                   " [--seed S] [--budget P] [--no-batch] [--metrics-out FILE]\n");
      return 2;
    }
  }
  if (mode == "--demo") {
    return RunDemo(metrics_out);
  }
  if (mode == "--stdin") {
    return RunStdin(metrics_out);
  }
  if (mode == "--load") {
    return RunLoad(sessions, requests, seed, budget, batching, metrics_out);
  }
  std::fprintf(stderr, "komodo-serve: pick a mode (--demo | --stdin | --load)\n");
  return 2;
}
