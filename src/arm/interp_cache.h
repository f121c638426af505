// Interpreter fast path: the live-page-table footprint (DESIGN.md §8).
//
// Every secure-world store asks whether it lands in the live enclave page
// table (§5.1 tlb_consistent). The reference answer, AddrInLivePageTable,
// scans all 1024 L1 entries. The footprint holds the byte ranges of the
// active L1 table and the L2 tables it references, recomputed only when the
// TTBR0 or the L1 page's generation moves, so the store check becomes one
// binary search. It is the interpreter's only cache: decoding and page walks
// run uncached every step.
//
// The footprint is bookkeeping: it is excluded from state equality, and a
// MachineState copy carries it along with the page generations it was
// checked against. set_enabled(false) answers every check through
// AddrInLivePageTable instead; the interp fuzz oracle runs the two side by
// side.
#ifndef SRC_ARM_INTERP_CACHE_H_
#define SRC_ARM_INTERP_CACHE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "src/arm/memory.h"
#include "src/arm/types.h"

namespace komodo::arm {

class LivePtFootprint {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) {
    enabled_ = on;
    valid_ = false;
  }

  // AddrInLivePageTable(mem, ttbr0, addr) through the footprint.
  bool StoreHitsLivePageTable(const PhysMemory& mem, paddr ttbr0, paddr addr) {
    if (!valid_ || ttbr0_ != ttbr0 || mem.PageGenAt(l1_first_idx_) != l1_first_gen_ ||
        mem.PageGenAt(l1_last_idx_) != l1_last_gen_) {
      Rebuild(mem, ttbr0);
    }
    return Contains(addr);
  }

 private:
  void Rebuild(const PhysMemory& mem, paddr ttbr0);
  bool Contains(paddr addr) const;

  bool enabled_ = true;
  bool valid_ = false;
  paddr ttbr0_ = 0;
  // The footprint derives from the L1 table's contents alone; the
  // generations of the first/last page the 4 kB table touches gate reuse.
  size_t l1_first_idx_ = PhysMemory::kNoPage;
  size_t l1_last_idx_ = PhysMemory::kNoPage;
  uint32_t l1_first_gen_ = 0;
  uint32_t l1_last_gen_ = 0;
  std::vector<std::pair<paddr, paddr>> ranges_;  // sorted, merged [start,end)
};

}  // namespace komodo::arm

#endif  // SRC_ARM_INTERP_CACHE_H_
