#include "src/fuzz/oracles.h"

#include <optional>
#include <sstream>

#include "src/arm/assembler.h"
#include "src/core/kom_defs.h"
#include "src/fuzz/coverage.h"
#include "src/fuzz/generator.h"
#include "src/fuzz/inject.h"
#include "src/fuzz/pool.h"
#include "src/obs/trace.h"
#include "src/os/world.h"
#include "src/spec/equivalence.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"
#include "src/spec/refinement.h"
#include "src/spec/spec_dispatch.h"

namespace komodo::fuzz {

namespace {

Verdict Fail(int op, std::string detail) { return Verdict{true, op, std::move(detail)}; }

// Arms the primary world's observability coverage hook for the duration of
// one oracle run and harvests the keys on every exit path, including early
// failure returns. The tracer is cycle bit-identical on/off, so arming it
// cannot change a verdict.
//
// Must be declared *after* the world leases it references: it harvests in its
// destructor, while the worlds are still leased.
class CoverageScope {
 public:
  CoverageScope(os::World& primary, CoverageMap* cover) : primary_(primary), cover_(cover) {
    if (cover_ == nullptr) {
      return;
    }
    obs::Observability& obs = primary_.monitor.obs();
    was_enabled_ = obs.enabled();
    if (!was_enabled_) {
      // Tiny ring: only the key set matters, not the event log.
      obs.Enable(kCoverageRing);
    }
    obs.ArmCoverage();
  }
  CoverageScope(const CoverageScope&) = delete;
  CoverageScope& operator=(const CoverageScope&) = delete;
  ~CoverageScope() {
    if (cover_ == nullptr) {
      return;
    }
    HarvestObsCoverage(primary_, cover_);
    obs::Observability& obs = primary_.monitor.obs();
    obs.DisarmCoverage();
    if (!was_enabled_) {
      obs.Disable();
    }
  }

 private:
  static constexpr size_t kCoverageRing = 64;
  os::World& primary_;
  CoverageMap* cover_;
  bool was_enabled_ = false;
};

std::string OpLabel(const Trace& t, size_t i) {
  std::ostringstream out;
  out << "op " << i << " of " << t.ops.size();
  return out.str();
}

// Replays one poke. Page numbers are clamped into insecure RAM so shrinker
// The oracles compare and hash the raw ABI words of Enter/Resume, so the
// typed EnterResult is flattened back to the r0/r1 pair at these sites.
os::SmcRet AbiWords(const os::EnterResult& r) { return {ToWord(r.err), r.payload}; }

// arg-simplification cannot wander out of bounds (WriteInsecure is raw).
void ApplyPoke(os::World& w, const TraceOp& op) {
  const word npages = arm::kInsecureSize / arm::kPageSize;
  w.os.WriteInsecure(op.a[0] % npages, op.a[1] % arm::kWordsPerPage, op.a[2]);
}

// Builds the trace's victim enclave; returns false (with `why`) on failure.
// Victims that rewrite their own code get their code page mapped R|W|X.
bool BuildVictim(os::World& w, const std::string& name, os::EnclaveHandle* out,
                 std::string* why) {
  const std::vector<word> program = VictimProgram(name);
  if (program.empty()) {
    *why = "unknown victim '" + name + "'";
    return false;
  }
  if (!VictimWantsWritableCode(name)) {
    if (auto built = w.os.NewEnclave().Code(program).Build(); built.ok()) {
      *out = *std::move(built);
      return true;
    } else {
      *why = "victim build failed: " + std::string(KomErrName(built.error()));
      return false;
    }
  }
  os::Os& os = w.os;
  os::EnclaveHandle e;
  e.addrspace = os.AllocSecurePage();
  e.l1pt = os.AllocSecurePage();
  const PageNr l2 = os.AllocSecurePage();
  const PageNr code = os.AllocSecurePage();
  e.thread = os.AllocSecurePage();
  const word staging = os.AllocInsecurePage();
  os.WriteInsecurePage(staging, program);
  word err = os.InitAddrspace(e.addrspace, e.l1pt).err;
  if (err == kErrSuccess) err = os.InitL2Table(e.addrspace, l2, 0).err;
  if (err == kErrSuccess) {
    err = os.MapSecure(e.addrspace, code,
                       MakeMapping(os::kEnclaveCodeVa, kMapR | kMapW | kMapX), staging)
              .err;
  }
  if (err == kErrSuccess) err = os.InitThread(e.addrspace, e.thread, os::kEnclaveCodeVa).err;
  if (err == kErrSuccess) err = os.Finalise(e.addrspace).err;
  if (err != kErrSuccess) {
    *why = "victim build failed: " + std::string(KomErrName(err));
    return false;
  }
  e.l2pts.push_back(l2);
  e.data_pages.push_back(code);
  *out = e;
  return true;
}

// Reifies the abstract state mid-replay. An undecodable representation
// (possible only when a fault injection corrupted the monitor's structures)
// is an oracle failure with a replayable verdict, not a harness abort — the
// corpus pins traces whose whole point is reproducing exactly that.
Verdict ExtractFailure(const Trace& t, size_t i, const spec::ExtractError& xerr) {
  return Fail(static_cast<int>(i), OpLabel(t, i) + ": spec extraction failed at page " +
                                       std::to_string(xerr.page) + ": " + xerr.detail);
}

std::optional<Verdict> ExtractInto(const os::World& w, const Trace& t, size_t i,
                                   spec::PageDb* out) {
  spec::ExtractError xerr;
  std::optional<spec::PageDb> got = spec::TryExtractPageDb(w.machine, &xerr);
  if (!got.has_value()) {
    return ExtractFailure(t, i, xerr);
  }
  *out = std::move(*got);
  return std::nullopt;
}

// The SVC driver: loads (call, a1, a2, a3) staged in its data page into
// r0-r3, issues the SVC, then exits with the SVC's r0 result. Exit-style SVCs
// terminate at the first `svc`; everything else reaches the explicit exit.
std::vector<word> DriverProgram() {
  arm::Assembler a(os::kEnclaveCodeVa);
  using namespace arm;
  a.MovImm(R4, os::kEnclaveDataVa);
  a.Ldr(R0, R4, 0);
  a.Ldr(R1, R4, 4);
  a.Ldr(R2, R4, 8);
  a.Ldr(R3, R4, 12);
  a.Svc();
  a.Mov(R1, R0);
  a.MovImm(R0, kSvcExit);
  a.Svc();
  return a.Finish();
}

// --- refinement / invariants ---------------------------------------------------

// One replay loop serves both spec-backed oracles: with `with_spec` every
// call is judged against the spec (spec::JudgeStep), without it only the
// PageDB invariants are checked.
Verdict RunSpecBacked(const Trace& t, bool with_spec, WorldPool& pool, CoverageMap* cover) {
  WorldPool::Lease lease = pool.Acquire(t.pages);
  os::World& w = lease.world();
  CoverageScope coverage(w, cover);

  bool needs_driver = false;
  for (const TraceOp& op : t.ops) {
    needs_driver = needs_driver || op.kind == OpKind::kSvc;
  }
  os::EnclaveHandle driver;
  if (needs_driver) {
    auto built = w.os.NewEnclave().Code(DriverProgram()).Build();
    if (!built.ok()) {
      return Fail(-1,
                  "harness: driver build failed: " + std::string(KomErrName(built.error())));
    }
    driver = *std::move(built);
  }

  // The call an op made and the spec's result for it, judged once the
  // post-state is extracted.
  struct Step {
    spec::StepCall call;
    spec::Result expected;
    word impl_err = 0;
  };

  spec::PageDb d = spec::ExtractPageDb(w.machine);
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const TraceOp& op = t.ops[i];
    std::optional<Step> step;
    switch (op.kind) {
      case OpKind::kPoke:
        ApplyPoke(w, op);  // insecure RAM is outside the PageDb
        break;
      case OpKind::kEnter:
      case OpKind::kResume:
        break;  // no victim in spec-backed traces
      case OpKind::kSmc: {
        const std::array<word, 4> args{op.a[1], op.a[2], op.a[3], op.a[4]};
        if (with_spec) {
          step = Step{spec::StepCall::Smc(op.a[0]), spec::ApplySmc(d, w.machine, op.a[0], args)};
        }
        const os::SmcRet got = w.os.Smc(op.a[0], args[0], args[1], args[2], args[3]);
        if (step.has_value()) {
          step->impl_err = got.err;
        }
        break;
      }
      case OpKind::kSvc: {
        // Staging the SVC arguments writes the driver's data page directly —
        // the same deus-ex channel the noninterference victims use for their
        // secrets. That is only sound while the page still *is* the driver's
        // data page: the adversary may have stopped and dismantled the driver
        // and recycled its pages into, say, another enclave's page tables,
        // which a direct write would corrupt in ways no real OS can.
        const PageNr data_page = driver.data_pages[1];
        const bool intact = d.ValidPageNr(driver.thread) &&
                            d[driver.thread].type() == PageType::kDispatcher &&
                            d[driver.thread].owner == driver.addrspace &&
                            d.ValidPageNr(data_page) &&
                            d[data_page].type() == PageType::kDataPage &&
                            d[data_page].owner == driver.addrspace;
        if (intact) {
          const paddr data = PagePaddr(data_page);
          for (int j = 0; j < 4; ++j) {
            w.machine.mem.Write(data + static_cast<word>(j) * arm::kWordSize, op.a[j]);
          }
          if (auto bad = ExtractInto(w, t, i, &d)) {
            return *bad;
          }
        }
        if (!with_spec) {
          w.os.Enter(driver.thread);
          break;
        }
        spec::Result guard = spec::ApplySmc(d, w.machine, kSmcEnter, {driver.thread, 0, 0, 0});
        const os::SmcRet got = AbiWords(w.os.Enter(driver.thread));
        if (guard.err == kErrSuccess && intact && got.err == kErrSuccess) {
          // The intact driver ran to its exit: the SVC itself is the step,
          // and its r0 result came back as the exit value.
          step = Step{spec::StepCall::Svc(op.a[0]),
                      spec::ApplySvc(d, driver.addrspace, op.a[0], {op.a[1], op.a[2], op.a[3]}),
                      got.val};
        } else {
          // The Enter is the step: refused, or havoc because some other
          // enclave's code ran or the driver faulted or was interrupted.
          step = Step{spec::StepCall::Smc(kSmcEnter), std::move(guard), got.err};
        }
        break;
      }
    }
    spec::ExtractError xerr;
    std::optional<spec::PageDb> post = spec::TryExtractPageDb(w.machine, &xerr);
    if (step.has_value()) {
      if (auto bad = spec::JudgeStep(step->call, step->expected, step->impl_err, d,
                                     post.has_value() ? &*post : nullptr)) {
        return Fail(static_cast<int>(i), OpLabel(t, i) + ": " + *bad);
      }
    }
    if (!post.has_value()) {
      return ExtractFailure(t, i, xerr);
    }
    d = std::move(*post);
    if (cover != nullptr) {
      HarvestPageDbCoverage(d, cover);
    }
    const auto violations = spec::PageDbViolations(d);
    if (!violations.empty()) {
      return Fail(static_cast<int>(i), OpLabel(t, i) + ": invariant: " + violations.front());
    }
  }
  return {};
}

// --- noninterference -----------------------------------------------------------

Verdict RunNoninterference(const Trace& t, WorldPool& pool, CoverageMap* cover) {
  if (t.victim.empty()) {
    return Fail(-1, "harness: noninterference trace needs a victim");
  }
  WorldPool::Lease lease1 = pool.Acquire(t.pages);
  WorldPool::Lease lease2 = pool.Acquire(t.pages);
  os::World& w1 = lease1.world();
  os::World& w2 = lease2.world();
  CoverageScope coverage(w1, cover);
  os::EnclaveHandle v1, v2;
  std::string why;
  if (!BuildVictim(w1, t.victim, &v1, &why) || !BuildVictim(w2, t.victim, &v2, &why)) {
    return Fail(-1, "harness: " + why);
  }
  // Plant differing secrets in the victim's private page (a secret arriving
  // over a secure channel after launch; initial contents are OS-visible).
  const PageNr s1 = v1.data_pages.size() > 1 ? v1.data_pages[1] : v1.data_pages[0];
  const PageNr s2 = v2.data_pages.size() > 1 ? v2.data_pages[1] : v2.data_pages[0];
  w1.machine.mem.Write(PagePaddr(s1), t.secrets[0]);
  w2.machine.mem.Write(PagePaddr(s2), t.secrets[1]);

  for (size_t i = 0; i < t.ops.size(); ++i) {
    const TraceOp& op = t.ops[i];
    os::SmcRet r1{kErrSuccess, 0};
    os::SmcRet r2{kErrSuccess, 0};
    switch (op.kind) {
      case OpKind::kPoke:
        ApplyPoke(w1, op);
        ApplyPoke(w2, op);
        break;
      case OpKind::kSmc:
        r1 = w1.os.Smc(op.a[0], op.a[1], op.a[2], op.a[3], op.a[4]);
        r2 = w2.os.Smc(op.a[0], op.a[1], op.a[2], op.a[3], op.a[4]);
        break;
      case OpKind::kSvc:
        break;  // not generated for paired traces
      case OpKind::kEnter:
        r1 = AbiWords(w1.os.Enter(v1.thread, op.a[1], op.a[2], op.a[3]));
        r2 = AbiWords(w2.os.Enter(v2.thread, op.a[1], op.a[2], op.a[3]));
        break;
      case OpKind::kResume:
        r1 = AbiWords(w1.os.Resume(v1.thread));
        r2 = AbiWords(w2.os.Resume(v2.thread));
        break;
    }
    if (r1.err != r2.err || r1.val != r2.val) {
      std::ostringstream out;
      out << OpLabel(t, i) << ": result differs: (" << KomErrName(r1.err) << ", " << r1.val
          << ") vs (" << KomErrName(r2.err) << ", " << r2.val << ")";
      return Fail(static_cast<int>(i), out.str());
    }
    spec::PageDb d1(0);
    spec::PageDb d2(0);
    if (auto bad = ExtractInto(w1, t, i, &d1)) {
      return *bad;
    }
    if (auto bad = ExtractInto(w2, t, i, &d2)) {
      return *bad;
    }
    if (cover != nullptr) {
      HarvestPageDbCoverage(d1, cover);
    }
    const auto violations =
        spec::AdvEquivViolations(w1.machine, d1, w2.machine, d2, kInvalidPage);
    if (!violations.empty()) {
      return Fail(static_cast<int>(i), OpLabel(t, i) + ": ~adv broken: " + violations.front());
    }
  }
  return {};
}

// --- interp (footprint vs scan) ----------------------------------------------
//
// Two-way bisimulation: the same trace on a world with the interpreter's
// page-table footprint on and one answering every store check with the
// O(L1) AddrInLivePageTable scan (DESIGN.md §8). Any divergence in a result
// or in architectural state is a footprint-coherence bug. The failure
// details are canonical; the committed regression corpus records them.

Verdict RunInterp(const Trace& t, WorldPool& pool, CoverageMap* cover) {
  WorldPool::Lease lease_c = pool.Acquire(t.pages);
  WorldPool::Lease lease_u = pool.Acquire(t.pages);
  os::World& wc = lease_c.world();
  os::World& wu = lease_u.world();
  CoverageScope coverage(wc, cover);
  wc.machine.interp.set_enabled(true);
  wu.machine.interp.set_enabled(false);
  os::EnclaveHandle vc, vu;
  if (!t.victim.empty()) {
    std::string why;
    if (!BuildVictim(wc, t.victim, &vc, &why) || !BuildVictim(wu, t.victim, &vu, &why)) {
      return Fail(-1, "harness: " + why);
    }
  }
  for (size_t i = 0; i < t.ops.size(); ++i) {
    const TraceOp& op = t.ops[i];
    os::SmcRet rc{kErrSuccess, 0};
    os::SmcRet ru{kErrSuccess, 0};
    switch (op.kind) {
      case OpKind::kPoke:
        ApplyPoke(wc, op);
        ApplyPoke(wu, op);
        break;
      case OpKind::kSmc:
        rc = wc.os.Smc(op.a[0], op.a[1], op.a[2], op.a[3], op.a[4]);
        ru = wu.os.Smc(op.a[0], op.a[1], op.a[2], op.a[3], op.a[4]);
        break;
      case OpKind::kSvc:
        break;  // not generated for interp traces
      case OpKind::kEnter:
        if (t.victim.empty()) {
          break;
        }
        rc = AbiWords(wc.os.Enter(vc.thread, op.a[1], op.a[2], op.a[3]));
        ru = AbiWords(wu.os.Enter(vu.thread, op.a[1], op.a[2], op.a[3]));
        break;
      case OpKind::kResume:
        if (t.victim.empty()) {
          break;
        }
        rc = AbiWords(wc.os.Resume(vc.thread));
        ru = AbiWords(wu.os.Resume(vu.thread));
        break;
    }
    if (rc.err != ru.err || rc.val != ru.val) {
      std::ostringstream out;
      out << OpLabel(t, i) << ": result differs: footprint (" << KomErrName(rc.err) << ", "
          << rc.val << ") vs scan (" << KomErrName(ru.err) << ", " << ru.val << ")";
      return Fail(static_cast<int>(i), out.str());
    }
    const auto diff = MachineDiff(wc.machine, wu.machine);
    if (!diff.empty()) {
      return Fail(static_cast<int>(i),
                  OpLabel(t, i) + ": footprint/scan state diverges: " + diff.front());
    }
  }
  return {};
}

}  // namespace

std::vector<std::string> MachineDiff(const arm::MachineState& a, const arm::MachineState& b) {
  std::vector<std::string> v;
  if (!(a.r == b.r)) {
    v.push_back("r0-r12 differ");
  }
  if (!(a.pc == b.pc)) {
    v.push_back("pc differs");
  }
  if (!(a.cpsr == b.cpsr)) {
    v.push_back("cpsr differs");
  }
  if (!(a.sp_banked == b.sp_banked) || !(a.lr_banked == b.lr_banked)) {
    v.push_back("banked sp/lr differ");
  }
  if (!(a.spsr_banked == b.spsr_banked)) {
    v.push_back("banked spsr differ");
  }
  if (!(a.scr_ns == b.scr_ns)) {
    v.push_back("scr.ns differs");
  }
  if (!(a.ttbr0 == b.ttbr0) || !(a.ttbr1 == b.ttbr1)) {
    v.push_back("ttbr differs");
  }
  if (!(a.vbar_secure == b.vbar_secure) || !(a.vbar_monitor == b.vbar_monitor)) {
    v.push_back("vbar differs");
  }
  if (!(a.tlb_consistent == b.tlb_consistent)) {
    v.push_back("tlb-consistency bit differs");
  }
  if (!(a.steps_retired == b.steps_retired)) {
    v.push_back("steps_retired differs");
  }
  if (!(a.cycles.total() == b.cycles.total())) {
    v.push_back("cycle count differs");
  }
  if (!(a.mem == b.mem)) {
    v.push_back("memories diverge");
  }
  return v;
}

Verdict RunTrace(const Trace& t, bool apply_inject, WorldPool* pool, CoverageMap* cover) {
  // One-shot callers get a throwaway pool, so every Acquire builds a fresh
  // world: the reference the pooled verdicts are tested against.
  WorldPool local_pool;
  WorldPool& p = pool != nullptr ? *pool : local_pool;
  const std::string inject = apply_inject ? t.inject : std::string();
  ScopedInject scoped(inject);
  if (!inject.empty() && !SetInjectByName(inject)) {
    return Fail(-1, "harness: unknown injection '" + inject + "'");
  }
  if (t.oracle == "refinement") {
    return RunSpecBacked(t, /*with_spec=*/true, p, cover);
  }
  if (t.oracle == "invariants") {
    return RunSpecBacked(t, /*with_spec=*/false, p, cover);
  }
  if (t.oracle == "noninterference") {
    return RunNoninterference(t, p, cover);
  }
  if (t.oracle == "interp") {
    return RunInterp(t, p, cover);
  }
  return Fail(-1, "harness: unknown oracle '" + t.oracle + "'");
}

}  // namespace komodo::fuzz
