// komodo-perfbench: runs one workload of the repository benchmark and prints
// its result (see README.md here).
//
//   komodo-perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The line before it records the host and the
// build the numbers come from. Exit status: 0 on a correct run, 1 when an
// output check failed, 2 on a usage or environment error.
#include <time.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "tools/cli_util.h"

namespace perfbench {
namespace {

constexpr const char* kProg = "komodo-perfbench";

struct MetricDef {
  std::string name;
  std::string unit;
};

// The names and units BENCHMARK.json declares, in its order.
std::vector<MetricDef> EndToEnd() {
  return {{"setup_s", "s"},           {"ops_per_s", "1/s"},
          {"host_p50_ms", "ms"},      {"host_p99_ms", "ms"},
          {"sim_p50_cycles", "cycles"}, {"sim_p99_cycles", "cycles"},
          {"peak_rss_mb", "MB"}};
}

std::vector<MetricDef> PerLayer() {
  std::vector<MetricDef> defs = {
      {"serve.submit_us", "us"},
      {"serve.round_build_us", "us"},
      {"serve.round_warm_us", "us"},
      {"serve.build_round_frac", "ratio"},
      {"serve.evictions", "count"},
      {"serve.rebuilds", "count"},
      {"serve.world_switches_per_req", "ratio"},
      {"serve.mean_batch", "count"},
      {"serve.queue_full", "count"},
  };
  for (const char* smc : {"Query", "GetPhysPages", "InitAddrspace", "InitThread", "InitL2Table",
                          "MapSecure", "AllocSpare", "MapInsecure", "Remove", "Finalise",
                          "Enter", "Resume", "Stop"}) {
    const std::string p = std::string("core.smc.") + smc;
    defs.push_back({p + ".calls", "count"});
    defs.push_back({p + ".host_us", "us"});
    defs.push_back({p + ".sim_cycles", "cycles"});
  }
  for (const char* oracle : {"refinement", "invariants", "noninterference", "interp"}) {
    defs.push_back({std::string("fuzz.") + oracle + ".calls_per_s", "1/s"});
    defs.push_back({std::string("fuzz.") + oracle + ".cpu_share", "ratio"});
  }
  defs.insert(defs.end(), {
                              {"arm.steps", "count"},
                              {"arm.decode_hit_ratio", "ratio"},
                              {"arm.tlb_hit_ratio", "ratio"},
                              {"os.stage_us_per_kB", "us/kB"},
                              {"enclave.notary_core_us", "us"},
                              {"core.enter_overhead_us", "us"},
                              {"enclave.sim_overhead_pct", "%"},
                              {"crypto.sha256_us_per_kB", "us/kB"},
                              {"crypto.rsa_private_op_us", "us"},
                              {"crypto.rsa_keygen_s", "s"},
                              {"fuzz.worlds_built", "count"},
                              {"fuzz.pages_per_reset", "count"},
                              {"fuzz.machine_diff_us", "us"},
                              {"spec.adv_equiv_us", "us"},
                              {"spec.extract_us", "us"},
                              {"fuzz.generate_us", "us"},
                              {"verify.states", "count"},
                              {"verify.transitions", "count"},
                              {"verify.clipped", "count"},
                              {"verify.canonical_key_us", "us"},
                              {"trace_overhead_frac", "ratio"},
                          });
  return defs;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s --workload serve-churn|notary-mix|fuzz-campaign|verify-small\n"
               "           --seed N [--seconds S] [--trace 0|1]\n",
               kProg, why, kProg);
  std::exit(2);
}

// Refuses builds whose timings say nothing about the shipped program.
void CheckBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
  const std::string flags = PERFBENCH_CXX_FLAGS;
  bool sanitized = flags.find("-fsanitize") != std::string::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
  bool optimized = type != "Debug";
#if !defined(__OPTIMIZE__)
  optimized = false;
#endif
  if (sanitized || !optimized) {
    std::fprintf(stderr, "%s: refusing to measure a %s build (%s)\n", kProg,
                 sanitized ? "sanitizer" : "debug", type.c_str());
    std::exit(2);
  }
}

// The monitor reads these silently; set, they would trace an untraced run or
// send parent and change down different code paths.
void CheckEnvironment() {
  for (const char* var :
       {"KOMODO_TRACE", "KOMODO_TRACE_BUF", "KOMODO_JIT", "KOMODO_INTERP_CACHE"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "%s: refusing to run with %s set; unset it\n", kProg, var);
      std::exit(2);
    }
  }
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT

  std::string workload;
  RunOptions opts;
  bool have_seed = false;
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag != "--workload" && flag != "--seed" && flag != "--seconds" && flag != "--trace") {
      Usage(("unknown argument '" + flag + "'").c_str());
    }
    if (i + 1 >= argc) {
      Usage((flag + " needs a value").c_str());
    }
    if (!seen.insert(flag).second) {
      Usage((flag + " given twice").c_str());
    }
    const char* value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      opts.seed = komodo::cli::ParseU64(kProg, "--seed", value);
      have_seed = true;
    } else if (flag == "--seconds") {
      opts.seconds =
          static_cast<double>(komodo::cli::ParseU64(kProg, "--seconds", value, 1, 3600));
    } else {
      opts.trace = komodo::cli::ParseU64(kProg, "--trace", value, 0, 1) == 1;
    }
  }
  Report (*run)(const RunOptions&) = nullptr;
  if (workload == "serve-churn") {
    run = RunServeChurn;
  } else if (workload == "notary-mix") {
    run = RunNotaryMix;
  } else if (workload == "fuzz-campaign") {
    run = RunFuzzCampaign;
  } else if (workload == "verify-small") {
    run = RunVerifySmall;
  } else {
    Usage(workload.empty() ? "--workload is required"
                           : ("unknown workload '" + workload + "'").c_str());
  }
  if (!have_seed) {
    Usage("--seed is required");
  }
  CheckBuild();
  CheckEnvironment();

  std::printf(
      "{\"config\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %ld, \"compiler\": \"%s\", \"build_type\": \"%s\"}}\n",
      workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
      opts.trace ? 1 : 0, sysconf(_SC_NPROCESSORS_ONLN), Compiler().c_str(),
      PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  Report report = run(opts);
  // Host times are the main thread's CPU time, so work on another thread
  // would go unmeasured.
  const double process_cpu = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
  const double thread_cpu = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
  if (process_cpu > thread_cpu * 1.01 + 0.01) {
    report.problems.push_back("work ran on other threads (process CPU " +
                              std::to_string(process_cpu) + " s, main thread " +
                              std::to_string(thread_cpu) + " s)");
  }

  // Every declared metric is printed, in declaration order; a per-layer
  // metric the workload does not exercise reads 0.
  const std::vector<MetricDef> defs = opts.trace ? PerLayer() : EndToEnd();
  std::string metrics;
  std::set<std::string> declared;
  for (const MetricDef& d : defs) {
    declared.insert(d.name);
    double value = 0.0;
    bool found = false;
    for (const Metric& m : report.metrics) {
      if (m.name == d.name) {
        if (m.unit != d.unit) {
          report.problems.push_back("metric " + m.name + " has unit " + m.unit);
        }
        value = m.value;
        found = true;
      }
    }
    if (!found && !opts.trace) {
      report.problems.push_back("end-to-end metric missing: " + d.name);
    }
    if (!std::isfinite(value)) {
      report.problems.push_back("metric is not finite: " + d.name);
      value = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name.c_str(), value, d.unit.c_str());
    metrics += buf;
  }
  for (const Metric& m : report.metrics) {
    if (declared.count(m.name) == 0) {
      report.problems.push_back("undeclared metric: " + m.name);
    }
  }
  for (const std::string& p : report.problems) {
    std::fprintf(stderr, "%s: check failed: %s\n", kProg, p.c_str());
  }
  const bool correct = report.correct();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
