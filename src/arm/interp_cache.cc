#include "src/arm/interp_cache.h"

#include <algorithm>

#include "src/util/checked_parse.h"

namespace komodo::arm {

InterpCaches::InterpCaches()
    : enabled_(EnvSwitch("KOMODO_INTERP_CACHE", true)),
      decode_(kDecodeEntries),
      tlb_(kTlbEntries) {}

InterpCaches::InterpCaches(const InterpCaches& o)
    : enabled_(o.enabled_), decode_(kDecodeEntries), tlb_(kTlbEntries) {}

InterpCaches& InterpCaches::operator=(const InterpCaches& o) {
  enabled_ = o.enabled_;
  InvalidateAll();
  return *this;
}

const Instruction* InterpCaches::FillDecode(const PhysMemory& mem, paddr phys,
                                            DecodeEntry& e) {
  ++stats_.decode_misses;
  const std::optional<Instruction> decoded = Decode(mem.Read(phys));
  e.addr = phys;
  e.epoch = decode_epoch_;
  e.gen_idx = mem.PageIndexOf(phys);
  e.gen = mem.PageGenAt(e.gen_idx);
  e.decode_ok = decoded.has_value();
  if (decoded.has_value()) {
    e.insn = *decoded;
  }
  return e.decode_ok ? &e.insn : nullptr;
}

WalkResult InterpCaches::FillTlb(const PhysMemory& mem, paddr ttbr0, vaddr va,
                                 TlbEntry& e) {
  ++stats_.tlb_misses;
  WalkTrace trace;
  const WalkResult res = WalkPageTable(mem, ttbr0, va, &trace);
  if (res.ok) {
    e.vpn = va >> 12;
    e.epoch = tlb_epoch_;
    e.ttbr0 = ttbr0;
    e.l1_gen_idx = mem.PageIndexOf(trace.l1_entry_addr);
    e.l2_gen_idx = mem.PageIndexOf(trace.l2_entry_addr);
    e.l1_gen = mem.PageGenAt(e.l1_gen_idx);
    e.l2_gen = mem.PageGenAt(e.l2_gen_idx);
    e.page_base = PageBase(res.phys);
    e.user_write = res.user_write;
    e.executable = res.executable;
  }
  return res;
}

void InterpCaches::RebuildFootprint(const PhysMemory& mem, paddr ttbr0) {
  ++stats_.pt_filter_rebuilds;
  footprint_.ranges.clear();
  footprint_.ttbr0 = ttbr0;
  const paddr l1_end = ttbr0 + kL1Entries * kWordSize;
  footprint_.l1_first_idx = mem.PageIndexOf(PageBase(ttbr0));
  footprint_.l1_last_idx = mem.PageIndexOf(PageBase(l1_end - kWordSize));
  footprint_.l1_first_gen = mem.PageGenAt(footprint_.l1_first_idx);
  footprint_.l1_last_gen = mem.PageGenAt(footprint_.l1_last_idx);
  footprint_.ranges.emplace_back(ttbr0, l1_end);
  for (word l1_index = 0; l1_index < kL1Entries; ++l1_index) {
    const paddr l1_addr = ttbr0 + l1_index * kWordSize;
    if (!mem.IsValidPhys(l1_addr)) {
      continue;
    }
    const word l1_desc = mem.Read(l1_addr);
    if (!IsL1PageTableDesc(l1_desc)) {
      continue;
    }
    const paddr l2_table = L1DescTableBase(l1_desc);
    footprint_.ranges.emplace_back(l2_table, l2_table + kL2TableBytes);
  }
  // Sort and merge so membership is one binary search.
  std::sort(footprint_.ranges.begin(), footprint_.ranges.end());
  std::vector<std::pair<paddr, paddr>> merged;
  for (const auto& r : footprint_.ranges) {
    if (!merged.empty() && r.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  footprint_.ranges = std::move(merged);
  footprint_.valid = true;
}

bool InterpCaches::FootprintContains(paddr addr) const {
  // First range with start > addr; the candidate containing addr precedes it.
  auto it = std::upper_bound(
      footprint_.ranges.begin(), footprint_.ranges.end(), addr,
      [](paddr a, const std::pair<paddr, paddr>& r) { return a < r.first; });
  return it != footprint_.ranges.begin() && addr < std::prev(it)->second;
}

void InterpCaches::InvalidateTlb() {
  ++tlb_epoch_;
  footprint_.valid = false;
}

void InterpCaches::InvalidateAll() {
  InvalidateTlb();
  ++decode_epoch_;
}

std::vector<paddr> InterpCaches::ResidentDecodeAddrs() const {
  std::vector<paddr> out;
  for (const DecodeEntry& e : decode_) {
    if (e.addr != kNoTag && e.epoch == decode_epoch_) {
      out.push_back(e.addr);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace komodo::arm
