// Physical memory for the machine model.
//
// Following the paper's Dafny model (§5.1), memory is a map from word-aligned
// physical addresses to 32-bit words; only aligned word accesses exist.
// Memory is split into the three regions of the physical map (insecure RAM,
// monitor image, secure pages) so that region predicates — which the monitor's
// validity checks depend on — are cheap and explicit.
//
// Hot-path design: the three regions are flat vectors and the word accessors
// are inline single-branch span lookups (DESIGN.md §8). Every page carries a
// generation counter bumped on any store into it; the interpreter's decode
// cache and micro-TLB validate their entries against these generations, which
// makes them coherent against *any* writer (interpreted stores, monitor C++
// code, or test-harness pokes) without explicit invalidation hooks.
//
// Snapshot-reset (DESIGN.md §11): with dirty tracking enabled, every store
// also records the containing page in a dirty list (once per page), so
// ResetTo(snapshot) can restore the memory to a previously copied state by
// rewriting only the pages written since tracking began — O(pages actually
// dirtied) instead of O(total memory). The fuzz campaign's per-worker world
// pools lean on this to replace a ~17 MB zero-and-reconstruct per trace with
// a copy of the handful of pages the previous trace touched.
//
// Baseline-token equality (DESIGN.md §11): EnableDirtyTracking also stamps
// the memory with a fresh *baseline token* naming its current contents, and
// a memory holding a token equals that baseline on every page outside its
// dirty list. Copies inherit the token and the dirty list, so two memories
// that share a token differ at most on the union of their dirty lists, and
// operator== compares only those pages. Memories without a shared token fall
// back to comparing every word.
#ifndef SRC_ARM_MEMORY_H_
#define SRC_ARM_MEMORY_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/arm/types.h"
#include "src/fuzz/inject.h"

namespace komodo::arm {

// Identifies which physical region an address falls in.
enum class MemRegion { kInsecure, kMonitor, kSecurePages, kUnmapped };

class PhysMemory {
 public:
  // `nsecure_pages` is the bootloader-configured size of the secure page
  // region (GetPhysPages returns it).
  explicit PhysMemory(word nsecure_pages = kDefaultSecurePages);

  word nsecure_pages() const { return nsecure_pages_; }

  MemRegion RegionOf(paddr addr) const {
    // Regions are disjoint; unsigned wraparound makes each test one compare.
    if (addr - kInsecureBase < kInsecureSize) {
      return MemRegion::kInsecure;
    }
    if (addr - kMonitorBase < kMonitorSize) {
      return MemRegion::kMonitor;
    }
    if (addr - kSecurePagesBase < nsecure_pages_ * kPageSize) {
      return MemRegion::kSecurePages;
    }
    return MemRegion::kUnmapped;
  }
  bool IsValidPhys(paddr addr) const { return RegionOf(addr) != MemRegion::kUnmapped; }

  // Word access. Addresses must be word-aligned and mapped; the model treats a
  // violation as a programming error in the caller (the interpreter raises an
  // architectural fault *before* calling these).
  word Read(paddr addr) const {
    assert(IsWordAligned(addr));
    const word* p = WordPtr(addr);
    assert(p != nullptr);
    return *p;
  }
  void Write(paddr addr, word value) {
    assert(IsWordAligned(addr));
    size_t page_index = 0;
    word* p = WordPtr(addr, &page_index);
    assert(p != nullptr);
    *p = value;
    NoteStore(page_index);
  }

  // Generation bookkeeping for the interpreter caches: every store bumps the
  // containing page's counter. Unmapped addresses report the constant
  // generation 0 (they can never be written). `PageIndexOf` resolves an
  // address to its stable global page index once, so cache entries revalidate
  // with a single indexed load (`PageGenAt`) instead of a region decode.
  static constexpr size_t kNoPage = static_cast<size_t>(-1);
  size_t PageIndexOf(paddr addr) const {
    size_t page_index = kNoPage;
    (void)WordPtr(addr & ~3u, &page_index);
    return page_index;
  }
  uint32_t PageGenAt(size_t page_index) const {
    return page_index == kNoPage ? 0 : page_gen_[page_index];
  }
  uint32_t PageGen(paddr addr) const { return PageGenAt(PageIndexOf(addr)); }

  // Bulk helpers used by loaders, page initialisation and hashing.
  void ReadPage(paddr page_base, word out[kWordsPerPage]) const;
  void WritePage(paddr page_base, const word in[kWordsPerPage]);
  void ZeroPage(paddr page_base);

  // Byte-oriented view over one page (for measurement hashing). `bytes_out`
  // must hold kPageSize bytes; words are serialised little-endian.
  void ReadPageBytes(paddr page_base, uint8_t* bytes_out) const;

  // --- Snapshot-reset support (DESIGN.md §11) --------------------------------
  // Starts recording which pages are written from this point on (clears any
  // previously recorded dirty set) and assigns a fresh baseline token: the
  // current contents become the baseline. Tracking is off by default; nothing
  // in a normal run pays more than one predictable branch per store.
  void EnableDirtyTracking();
  bool dirty_tracking() const { return track_dirty_; }
  // Pages written since EnableDirtyTracking / the last ResetTo, as global
  // page indices (the PageIndexOf/PageGenAt space).
  const std::vector<uint32_t>& dirty_pages() const { return dirty_list_; }
  // True iff the (mapped) page holding `addr` is in the dirty set. Tracking
  // must be on.
  bool IsDirty(paddr addr) const {
    assert(track_dirty_);
    const size_t page_index = PageIndexOf(addr);
    assert(page_index != kNoPage);
    return dirty_map_[page_index] != 0;
  }

  // Restores this memory to `snapshot` (a copy taken when the dirty set was
  // last empty, i.e. at EnableDirtyTracking or right after a ResetTo) by
  // copying back only the dirty pages, then clears the dirty set. Each
  // restored page's generation is bumped — never rolled back — so decode
  // cache and micro-TLB entries can never mistake pre-reset contents for
  // post-reset contents (the caller must still invalidate caches whose
  // entries embed generation *indices* that stay valid; MachineState::ResetTo
  // does). Geometries must match. Returns the number of pages restored.
  //
  // The baseline token survives only if `snapshot` shares it and has an
  // empty dirty list (so it *is* the baseline); otherwise it is dropped and
  // later comparisons of this memory take the full path.
  size_t ResetTo(const PhysMemory& snapshot);

  // True iff both memories carry the same baseline token, i.e. they can
  // differ only on pages in one of their dirty lists.
  bool SharesBaseline(const PhysMemory& o) const {
    return baseline_ != 0 && baseline_ == o.baseline_;
  }

  // Takes over `baseline`'s token after checking, word by word, that this
  // memory equals it. Both dirty lists must be empty (each memory is at its
  // own baseline). Returns false, leaving the token alone, if they differ.
  bool AdoptBaseline(const PhysMemory& baseline);

  // Architectural equality: contents only. Page generations are cache
  // bookkeeping and must not distinguish observably-equal memories.
  // O(dirty pages) for memories that share a baseline, O(memory) otherwise.
  bool operator==(const PhysMemory& o) const;

  // Index into insecure_words() of the first word that differs between the
  // two memories' insecure RAM, or nullopt if it is equal. Same fast path and
  // fallback as operator==.
  std::optional<size_t> FirstInsecureMismatch(const PhysMemory& o) const;

  // Whole-region views (tests compare these against operator==).
  const std::vector<word>& insecure_words() const { return insecure_; }
  const std::vector<word>& secure_words() const { return secure_; }

 private:
  // Pointer to the backing word, or nullptr if unmapped. The non-const form
  // also yields the global page index (for the generation bump) so the region
  // decode happens once per access.
  const word* WordPtr(paddr addr, size_t* page_index = nullptr) const;
  word* WordPtr(paddr addr, size_t* page_index = nullptr) {
    return const_cast<word*>(static_cast<const PhysMemory*>(this)->WordPtr(addr, page_index));
  }

  // Region backing a page-aligned address, with the word index of `addr` in
  // it; non-const overload for writers (no const_cast at call sites).
  const std::vector<word>* BackingFor(paddr addr, size_t* index) const;
  std::vector<word>* BackingFor(paddr addr, size_t* index) {
    return const_cast<std::vector<word>*>(
        static_cast<const PhysMemory*>(this)->BackingFor(addr, index));
  }

  // First word of the page with global index `page_index` (which must be a
  // mapped page). Inverse of PageIndexOf's region layout.
  word* PageWords(size_t page_index);
  const word* PageWords(size_t page_index) const {
    return const_cast<PhysMemory*>(this)->PageWords(page_index);
  }

  // Bookkeeping after a store into `page_index`. The dirty-bypass injection
  // (fuzz/inject.h) drops the dirty record; only tracked memories read it.
  void NoteStore(size_t page_index) {
    ++page_gen_[page_index];
    if (track_dirty_ && !fuzz::Inject().dirty_bypass) {
      MarkDirty(page_index);
    }
  }
  void MarkDirty(size_t page_index) {
    if (!dirty_map_[page_index]) {
      dirty_map_[page_index] = 1;
      dirty_list_.push_back(static_cast<uint32_t>(page_index));
    }
  }

  // Page `page_index` holds the same words in both memories.
  bool PageEquals(const PhysMemory& o, size_t page_index) const;
  // Smallest page in the union of the two dirty lists (which must share a
  // baseline) on which the memories differ and `page_index < limit`, or
  // kNoPage.
  size_t FirstDirtyMismatch(const PhysMemory& o, size_t limit) const;

  word nsecure_pages_;
  std::vector<word> insecure_;
  std::vector<word> monitor_;
  std::vector<word> secure_;
  // One generation counter per mapped page, across all three regions in
  // layout order (insecure, monitor, secure).
  std::vector<uint32_t> page_gen_;
  // Dirty-page recording for snapshot-reset; empty/disabled unless
  // EnableDirtyTracking was called.
  bool track_dirty_ = false;
  std::vector<uint8_t> dirty_map_;    // one flag per mapped page
  std::vector<uint32_t> dirty_list_;  // insertion-ordered dirty page indices
  // Baseline token (0 = none); nonzero only while dirty tracking is on.
  uint64_t baseline_ = 0;
};

inline const word* PhysMemory::WordPtr(paddr addr, size_t* page_index) const {
  if (addr - kInsecureBase < kInsecureSize) {
    const paddr off = addr - kInsecureBase;
    if (page_index != nullptr) {
      *page_index = off / kPageSize;
    }
    return &insecure_[off / kWordSize];
  }
  if (addr - kMonitorBase < kMonitorSize) {
    const paddr off = addr - kMonitorBase;
    if (page_index != nullptr) {
      *page_index = kInsecureSize / kPageSize + off / kPageSize;
    }
    return &monitor_[off / kWordSize];
  }
  if (addr - kSecurePagesBase < nsecure_pages_ * kPageSize) {
    const paddr off = addr - kSecurePagesBase;
    if (page_index != nullptr) {
      *page_index = (kInsecureSize + kMonitorSize) / kPageSize + off / kPageSize;
    }
    return &secure_[off / kWordSize];
  }
  return nullptr;
}

// True iff the page-aligned physical address `page_base` lies entirely in
// insecure RAM — i.e. it overlaps neither the monitor image nor the secure
// page region. This is exactly the check §9.1 reports the unverified
// prototype got wrong.
bool IsInsecurePageAddr(const PhysMemory& mem, paddr page_base);

}  // namespace komodo::arm

#endif  // SRC_ARM_MEMORY_H_
