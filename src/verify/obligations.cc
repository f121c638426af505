#include "src/verify/obligations.h"

#include <cassert>
#include <utility>

#include "src/core/kom_defs.h"
#include "src/spec/extract.h"
#include "src/spec/invariants.h"
#include "src/spec/refinement.h"
#include "src/spec/spec_dispatch.h"

namespace komodo::verify {

namespace {

// Global page index (the dirty-list space: insecure, monitor, secure in
// layout order) back to the page's base physical address.
arm::paddr PageBaseOfIndex(uint32_t index) {
  constexpr uint32_t kInsecurePages = arm::kInsecureSize / arm::kPageSize;
  constexpr uint32_t kMonitorPages = arm::kMonitorSize / arm::kPageSize;
  if (index < kInsecurePages) {
    return arm::kInsecureBase + static_cast<arm::paddr>(index) * arm::kPageSize;
  }
  index -= kInsecurePages;
  if (index < kMonitorPages) {
    return arm::kMonitorBase + static_cast<arm::paddr>(index) * arm::kPageSize;
  }
  index -= kMonitorPages;
  return arm::kSecurePagesBase + static_cast<arm::paddr>(index) * arm::kPageSize;
}

ObligationResult FailOb(std::string detail, word impl_err) {
  ObligationResult res;
  res.ok = false;
  res.detail = std::move(detail);
  res.impl_err = impl_err;
  return res;
}

// A passing transition. Obligation 1 is checked again on the successor, the
// implementation's post-state: after a havoc transition it never went
// through the spec-side check. The result is built around `successor` rather
// than assigned into, so no engaged optional is ever overwritten.
ObligationResult Succeed(word impl_err, std::optional<spec::PageDb> successor) {
  if (successor.has_value()) {
    const auto violations = spec::PageDbViolations(*successor);
    if (!violations.empty()) {
      return FailOb("impl breaks invariant: " + violations.front(), impl_err);
    }
  }
  return ObligationResult{true, std::string(), impl_err, std::move(successor)};
}

}  // namespace

ConcreteWorld::ConcreteWorld(const WorldSpec& spec)
    : world_(spec.pages, fuzz::FuzzMonitorConfig()), boot_db_(0) {
  world_.machine.mem.EnableDirtyTracking();
  boot_ = std::make_unique<arm::MachineState>(world_.machine);
  mid_ = std::make_unique<arm::MachineState>(world_.machine);
  boot_db_ = spec::ExtractPageDb(world_.machine);
  mid_db_ = boot_db_;
}

void ConcreteWorld::MarkPages(arm::MachineState* m, const std::vector<uint32_t>& pages) {
  // Write-back marking: re-storing a word's own value records the page in
  // the dirty list (stores mark unconditionally) without changing contents,
  // which is exactly what ResetTo needs to know which pages to restore.
  for (uint32_t index : pages) {
    const arm::paddr base = PageBaseOfIndex(index);
    m->mem.Write(base, m->mem.Read(base));
  }
}

void ConcreteWorld::PreparePath(const std::vector<VerifyOp>& path) {
  // The live machine deviates from boot on the previous path's pages (not in
  // the dirty list any more — each mid-reset clears it) plus whatever the
  // last probe dirtied (still listed). Re-mark the former so the boot reset
  // restores both.
  MarkPages(&world_.machine, path_pages_);
  world_.ResetTo(*boot_);

  for (const VerifyOp& op : path) {
    if (op.irq) {
      world_.machine.pending_irq = true;
    }
    word err = 0;
    word val = 0;
    Execute(op, &err, &val);
    world_.machine.pending_irq = false;
  }

  // Refresh the mid snapshot buffer: it still holds the previous path's
  // state, so it deviates from the live machine on the union of the old and
  // new path footprints.
  const std::vector<uint32_t> new_path = world_.machine.mem.dirty_pages();
  MarkPages(mid_.get(), path_pages_);
  MarkPages(mid_.get(), new_path);
  mid_->ResetTo(world_.machine);
  path_pages_ = new_path;
  mid_db_ = spec::TryExtractPageDb(world_.machine);
}

void ConcreteWorld::ResetToMid() { world_.machine.ResetTo(*mid_); }

void ConcreteWorld::Execute(const VerifyOp& op, word* err, word* val) {
  if (!op.is_svc) {
    const os::SmcRet r =
        world_.os.Smc(op.call, op.args[0], op.args[1], op.args[2], op.args[3]);
    *err = r.err;
    *val = r.val;
    return;
  }
  // The SVC handlers never dereference the dispatcher page and only consult
  // as_page, so driving DispatchSvc directly covers the production handler
  // code without constructing and entering a driver enclave (which would
  // change the world the checker is supposed to be exploring).
  Monitor::SvcCtx ctx;
  ctx.call = op.call;
  ctx.args = {op.args[0], op.args[1], op.args[2]};
  ctx.disp_page = kInvalidPage;
  ctx.as_page = op.as_page;
  const Monitor::SvcResult r = world_.monitor.DispatchSvc(ctx);
  *err = ToWord(r.err);
  *val = r.val;
}

ConcreteWorld::Outcome ConcreteWorld::RunStaged(const VerifyOp& op) {
  Outcome out;
  if (op.irq) {
    world_.machine.pending_irq = true;
  }
  Execute(op, &out.impl_err, &out.impl_val);
  world_.machine.pending_irq = false;  // an un-taken IRQ must not leak onward
  assert(mid_db_.has_value());
  spec::ExtractError xerr;
  if (!spec::TryReextractPageDb(world_.machine, *mid_db_, &out.post, &xerr)) {
    out.extract_error = "page " + std::to_string(xerr.page) + ": " + xerr.detail;
  }
  return out;
}

ObligationResult CheckTransition(ConcreteWorld& world, const spec::PageDb& d,
                                 const VerifyOp& op) {
  world.ResetToMid();

  // Spec side first: ApplySmc reads the machine for the insecure-memory
  // environment, which must be sampled in the pre-state.
  const spec::Result sres =
      op.is_svc
          ? spec::ApplySvc(d, op.as_page, op.call, {op.args[0], op.args[1], op.args[2]})
          : spec::ApplySmc(d, world.machine(), op.call, op.args);

  // Obligation 1: the spec preserves the PageDb validity invariants.
  if (sres.err == kErrSuccess) {
    const auto violations = spec::PageDbViolations(sres.db);
    if (!violations.empty()) {
      return FailOb("spec breaks invariant: " + violations.front(), kErrSuccess);
    }
  }

  // Obligation 2: the implementation refines the spec. A post-state that
  // re-decoded no entry is `d` itself.
  ConcreteWorld::Outcome out = world.RunStaged(op);
  const bool decoded = out.extract_error.empty();
  const spec::PageDb* post = !decoded ? nullptr : out.post.has_value() ? &*out.post : &d;
  if (auto bad = spec::JudgeStep({op.is_svc, op.call}, sres, out.impl_err, d, post)) {
    return FailOb(std::move(*bad), out.impl_err);
  }
  if (!decoded) {
    return FailOb("extraction failed after impl call: " + out.extract_error, out.impl_err);
  }
  // A failed call left the PageDb as it was (the judge checked that), so only
  // a successful one can hand off a new state; nullopt when no entry changed.
  return Succeed(out.impl_err, sres.err == kErrSuccess ? std::move(out.post) : std::nullopt);
}

}  // namespace komodo::verify
