// Self-test of the benchmark's own input generation and tracer invisibility:
//
//   * one seed gives one serve schedule digest, one notary document list and
//     one fuzz campaign hash, and another seed changes each of them;
//   * simulated cycles are the same with the obs() tracer on as off, for
//     serve request latencies and notary notarizations.
//
// Shapes are shrunk so the whole test takes seconds. Exit 0 = pass.
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/crypto/sha256.h"

namespace perfbench {
namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

std::string ScheduleDigest(const ServeShape& shape, uint64_t seed) {
  komodo::crypto::Sha256 h;
  for (const ServeRequest& r : ServeSchedule(shape, seed)) {
    h.UpdateWordLe(r.session_index);
    h.UpdateWordLe(r.arg);
  }
  return komodo::crypto::DigestToHex(h.Finalize());
}

std::string DocumentsDigest(uint64_t seed) {
  komodo::crypto::Sha256 h;
  for (const std::vector<uint8_t>& d : NotaryDocuments(seed)) {
    h.UpdateWordLe(static_cast<uint32_t>(d.size()));
    h.Update(d);
  }
  return komodo::crypto::DigestToHex(h.Finalize());
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;  // NOLINT

  const ServeShape full;
  Expect(ScheduleDigest(full, 7) == ScheduleDigest(full, 7),
         "serve schedule: same seed, same digest");
  Expect(ScheduleDigest(full, 7) != ScheduleDigest(full, 8),
         "serve schedule: new seed, new digest");

  Expect(DocumentsDigest(7) == DocumentsDigest(7), "notary documents: same seed, same list");
  Expect(DocumentsDigest(7) != DocumentsDigest(8), "notary documents: new seed, new list");
  const std::vector<size_t> sizes = NotaryDocSizes();
  Expect(sizes.front() == 4096 && sizes.back() == 512 * 1024,
         "notary documents: sizes span 4-512 kB");

  const FuzzShape small{24, 12};
  bool failed_a = false, failed_b = false, failed_c = false;
  const std::string a = FuzzCampaignHash(small, 7, &failed_a);
  const std::string b = FuzzCampaignHash(small, 7, &failed_b);
  const std::string c = FuzzCampaignHash(small, 8, &failed_c);
  Expect(!failed_a && !failed_b && !failed_c, "fuzz campaign: no failure verdict");
  Expect(!a.empty() && a == b, "fuzz campaign: same seed, same hash");
  Expect(a != c, "fuzz campaign: new seed, new hash");

  ServeShape shape;
  shape.sessions = 64;
  shape.hot_sessions = 8;
  shape.requests = 600;
  const ServePassResult untraced = RunServePass(shape, 7, /*traced=*/false);
  const ServePassResult traced = RunServePass(shape, 7, /*traced=*/true);
  Expect(untraced.failed == 0 && untraced.problems.empty() && traced.failed == 0 &&
             traced.problems.empty(),
         "serve pass: every request completes with a correct reply");
  Expect(untraced.sim_latency_cycles == traced.sim_latency_cycles &&
             untraced.reply_digest == traced.reply_digest,
         "serve pass: tracer leaves replies and simulated latencies unchanged");

  std::vector<std::vector<uint8_t>> docs = NotaryDocuments(7);
  docs.resize(4);
  const std::vector<uint64_t> plain = NotarySimCycles(docs, /*traced=*/false);
  const std::vector<uint64_t> with_trace = NotarySimCycles(docs, /*traced=*/true);
  Expect(plain.size() == docs.size() && plain == with_trace,
         "notary: tracer leaves simulated cycles per notarization unchanged");

  std::printf("perfbench self-test %s\n", g_failures == 0 ? "passed" : "FAILED");
  return g_failures == 0 ? 0 : 1;
}
