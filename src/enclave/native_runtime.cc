#include "src/enclave/native_runtime.h"

#include <cassert>

namespace komodo::enclave {

using arm::Exception;

bool UserContext::Read(vaddr va, word* out) {
  if (!arm::IsWordAligned(va)) {
    return false;
  }
  const arm::WalkResult w = arm::WalkPageTable(m_.mem, m_.ttbr0, va);
  if (!w.ok || !w.user_read) {
    return false;
  }
  m_.cycles.Charge(arm::kCortexA7Costs.load);
  *out = m_.mem.Read(w.phys);
  return true;
}

bool UserContext::Write(vaddr va, word value) {
  if (!arm::IsWordAligned(va)) {
    return false;
  }
  const arm::WalkResult w = arm::WalkPageTable(m_.mem, m_.ttbr0, va);
  if (!w.ok || !w.user_write) {
    return false;
  }
  m_.cycles.Charge(arm::kCortexA7Costs.store);
  m_.mem.Write(w.phys, value);
  return true;
}

bool UserContext::ReadBytes(vaddr va, uint8_t* out, size_t len) {
  size_t i = 0;
  while (i < len) {
    const vaddr byte_va = va + static_cast<vaddr>(i);
    word w;
    if (!Read(byte_va & ~3u, &w)) {
      return false;
    }
    if ((byte_va & 3u) == 0 && len - i >= 4) {
      // Aligned full word: one load serves four bytes.
      out[i] = static_cast<uint8_t>(w);
      out[i + 1] = static_cast<uint8_t>(w >> 8);
      out[i + 2] = static_cast<uint8_t>(w >> 16);
      out[i + 3] = static_cast<uint8_t>(w >> 24);
      i += 4;
    } else {
      out[i] = static_cast<uint8_t>(w >> ((byte_va & 3u) * 8));
      ++i;
    }
  }
  return true;
}

bool UserContext::WriteBytes(vaddr va, const uint8_t* data, size_t len) {
  size_t i = 0;
  while (i < len) {
    const vaddr byte_va = va + static_cast<vaddr>(i);
    if ((byte_va & 3u) == 0 && len - i >= 4) {
      const word w = static_cast<word>(data[i]) | (static_cast<word>(data[i + 1]) << 8) |
                     (static_cast<word>(data[i + 2]) << 16) |
                     (static_cast<word>(data[i + 3]) << 24);
      if (!Write(byte_va & ~3u, w)) {
        return false;
      }
      i += 4;
    } else {
      // Unaligned edge: read-modify-write the containing word.
      word w;
      if (!Read(byte_va & ~3u, &w)) {
        return false;
      }
      const unsigned shift = (byte_va & 3u) * 8;
      w = (w & ~(0xffu << shift)) | (static_cast<word>(data[i]) << shift);
      if (!Write(byte_va & ~3u, w)) {
        return false;
      }
      ++i;
    }
  }
  return true;
}

NativeRuntime::NativeRuntime(Monitor& monitor) {
  monitor.SetUserRunner([this](arm::MachineState& m) { return RunUser(m); });
}

void NativeRuntime::Register(PageNr l1pt_page, std::shared_ptr<NativeProgram> program) {
  programs_[PagePaddr(l1pt_page)] = std::move(program);
}

std::optional<Exception> NativeRuntime::RunUser(arm::MachineState& m) {
  assert(m.cpsr.mode == arm::Mode::kUser);
  assert(m.tlb_consistent);

  // Pending interrupts win, as they would before the first instruction.
  if (m.pending_fiq && !m.cpsr.fiq_masked) {
    m.pending_fiq = false;
    m.TakeException(Exception::kFiq, m.pc + 4);
    return Exception::kFiq;
  }
  if (m.pending_irq && !m.cpsr.irq_masked) {
    m.pending_irq = false;
    m.TakeException(Exception::kIrq, m.pc + 4);
    return Exception::kIrq;
  }

  const auto it = programs_.find(m.ttbr0);
  if (it == programs_.end()) {
    return std::nullopt;  // an ordinary interpreted enclave
  }

  UserContext ctx(m);
  const UserAction action = it->second->Run(ctx);
  switch (action.kind) {
    case UserAction::Kind::kExit:
    case UserAction::Kind::kSvc:
      m.r[0] = action.svc_call;
      m.r[1] = action.args[0];
      m.r[2] = action.args[1];
      m.r[3] = action.args[2];
      m.cycles.Charge(arm::kCortexA7Costs.svc_smc_issue);
      m.TakeException(Exception::kSvc, m.pc + 4);
      return Exception::kSvc;
    case UserAction::Kind::kFault:
      m.TakeException(Exception::kDataAbort, m.pc + 8);
      return Exception::kDataAbort;
  }
  return Exception::kDataAbort;
}

}  // namespace komodo::enclave
