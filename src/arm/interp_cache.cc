#include "src/arm/interp_cache.h"

#include <algorithm>

#include "src/arm/page_table.h"

namespace komodo::arm {

void LivePtFootprint::Rebuild(const PhysMemory& mem, paddr ttbr0) {
  ranges_.clear();
  ttbr0_ = ttbr0;
  const paddr l1_end = ttbr0 + kL1Entries * kWordSize;
  l1_first_idx_ = mem.PageIndexOf(PageBase(ttbr0));
  l1_last_idx_ = mem.PageIndexOf(PageBase(l1_end - kWordSize));
  l1_first_gen_ = mem.PageGenAt(l1_first_idx_);
  l1_last_gen_ = mem.PageGenAt(l1_last_idx_);
  ranges_.emplace_back(ttbr0, l1_end);
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
    ranges_.emplace_back(l2_table, l2_table + kL2TableBytes);
  }
  // Sort and merge so membership is one binary search.
  std::sort(ranges_.begin(), ranges_.end());
  std::vector<std::pair<paddr, paddr>> merged;
  for (const auto& r : ranges_) {
    if (!merged.empty() && r.first <= merged.back().second) {
      merged.back().second = std::max(merged.back().second, r.second);
    } else {
      merged.push_back(r);
    }
  }
  ranges_ = std::move(merged);
  valid_ = true;
}

bool LivePtFootprint::Contains(paddr addr) const {
  // First range with start > addr; the candidate containing addr precedes it.
  auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), addr,
      [](paddr a, const std::pair<paddr, paddr>& r) { return a < r.first; });
  return it != ranges_.begin() && addr < std::prev(it)->second;
}

}  // namespace komodo::arm
