#include "src/arm/memory.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

namespace komodo::arm {

namespace {

constexpr size_t kInsecurePages = kInsecureSize / kPageSize;
constexpr size_t kMonitorPages = kMonitorSize / kPageSize;

// Source of baseline tokens, unique across the process (pooled worlds are
// built on several campaign worker threads). 0 is reserved for "none".
std::atomic<uint64_t> g_next_baseline{1};

}  // namespace

PhysMemory::PhysMemory(word nsecure_pages)
    : nsecure_pages_(nsecure_pages),
      insecure_(kInsecureSize / kWordSize, 0),
      monitor_(kMonitorSize / kWordSize, 0),
      secure_(static_cast<size_t>(nsecure_pages) * kWordsPerPage, 0),
      page_gen_((kInsecureSize + kMonitorSize) / kPageSize + nsecure_pages, 0) {
  assert(nsecure_pages >= 1 && nsecure_pages <= kMaxSecurePages);
}

const std::vector<word>* PhysMemory::BackingFor(paddr addr, size_t* index) const {
  switch (RegionOf(addr)) {
    case MemRegion::kInsecure:
      *index = (addr - kInsecureBase) / kWordSize;
      return &insecure_;
    case MemRegion::kMonitor:
      *index = (addr - kMonitorBase) / kWordSize;
      return &monitor_;
    case MemRegion::kSecurePages:
      *index = (addr - kSecurePagesBase) / kWordSize;
      return &secure_;
    case MemRegion::kUnmapped:
      return nullptr;
  }
  return nullptr;
}

void PhysMemory::ReadPage(paddr page_base, word out[kWordsPerPage]) const {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  const std::vector<word>* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  std::memcpy(out, backing->data() + index, kPageSize);
}

void PhysMemory::WritePage(paddr page_base, const word in[kWordsPerPage]) {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  std::vector<word>* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  std::memcpy(backing->data() + index, in, kPageSize);
  NoteStore(PageIndexOf(page_base));
}

void PhysMemory::ZeroPage(paddr page_base) {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  std::vector<word>* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  std::fill_n(backing->data() + index, kWordsPerPage, 0u);
  NoteStore(PageIndexOf(page_base));
}

word* PhysMemory::PageWords(size_t page_index) {
  if (page_index < kInsecurePages) {
    return insecure_.data() + page_index * kWordsPerPage;
  }
  if (page_index < kInsecurePages + kMonitorPages) {
    return monitor_.data() + (page_index - kInsecurePages) * kWordsPerPage;
  }
  assert(page_index < kInsecurePages + kMonitorPages + nsecure_pages_);
  return secure_.data() + (page_index - kInsecurePages - kMonitorPages) * kWordsPerPage;
}

void PhysMemory::EnableDirtyTracking() {
  track_dirty_ = true;
  dirty_map_.assign(page_gen_.size(), 0);
  dirty_list_.clear();
  baseline_ = g_next_baseline.fetch_add(1, std::memory_order_relaxed);
}

size_t PhysMemory::ResetTo(const PhysMemory& snapshot) {
  assert(track_dirty_);
  assert(nsecure_pages_ == snapshot.nsecure_pages_);
  // Sharing the token, this memory equals the baseline outside its dirty
  // list; a clean snapshot *is* the baseline, so after the copy-back this
  // memory is the baseline again. Anything else leaves no such guarantee.
  if (!SharesBaseline(snapshot) || !snapshot.dirty_list_.empty()) {
    baseline_ = 0;
  }
  const size_t restored = dirty_list_.size();
  for (const uint32_t page_index : dirty_list_) {
    std::memcpy(PageWords(page_index), snapshot.PageWords(page_index), kPageSize);
    ++page_gen_[page_index];
    dirty_map_[page_index] = 0;
  }
  dirty_list_.clear();
  return restored;
}

bool PhysMemory::AdoptBaseline(const PhysMemory& baseline) {
  assert(track_dirty_ && baseline.baseline_ != 0);
  if (!dirty_list_.empty() || !baseline.dirty_list_.empty() || !(*this == baseline)) {
    return false;
  }
  baseline_ = baseline.baseline_;
  return true;
}

bool PhysMemory::PageEquals(const PhysMemory& o, size_t page_index) const {
  return std::memcmp(PageWords(page_index), o.PageWords(page_index), kPageSize) == 0;
}

size_t PhysMemory::FirstDirtyMismatch(const PhysMemory& o, size_t limit) const {
  size_t first = kNoPage;
  auto consider = [&](size_t page_index) {
    if (page_index < limit && page_index < first && !PageEquals(o, page_index)) {
      first = page_index;
    }
  };
  for (const uint32_t page_index : dirty_list_) {
    consider(page_index);
  }
  for (const uint32_t page_index : o.dirty_list_) {
    if (!dirty_map_[page_index]) {  // already visited above
      consider(page_index);
    }
  }
  return first;
}

bool PhysMemory::operator==(const PhysMemory& o) const {
  if (nsecure_pages_ != o.nsecure_pages_) {
    return false;
  }
  if (SharesBaseline(o)) {
    return FirstDirtyMismatch(o, page_gen_.size()) == kNoPage;
  }
  return insecure_ == o.insecure_ && monitor_ == o.monitor_ && secure_ == o.secure_;
}

std::optional<size_t> PhysMemory::FirstInsecureMismatch(const PhysMemory& o) const {
  if (SharesBaseline(o)) {
    const size_t page = FirstDirtyMismatch(o, kInsecurePages);
    if (page == kNoPage) {
      return std::nullopt;
    }
    const word* a = PageWords(page);
    const word* b = o.PageWords(page);
    size_t i = 0;
    while (a[i] == b[i]) {  // the page differs, so this stops inside it
      ++i;
    }
    return page * kWordsPerPage + i;
  }
  if (insecure_ == o.insecure_) {  // one memcmp for the common, equal case
    return std::nullopt;
  }
  const auto diff = std::mismatch(insecure_.begin(), insecure_.end(), o.insecure_.begin());
  return static_cast<size_t>(diff.first - insecure_.begin());
}

void PhysMemory::ReadPageBytes(paddr page_base, uint8_t* bytes_out) const {
  assert(IsPageAligned(page_base));
  size_t index = 0;
  const std::vector<word>* backing = BackingFor(page_base, &index);
  assert(backing != nullptr);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(bytes_out, backing->data() + index, kPageSize);
  } else {
    for (word i = 0; i < kWordsPerPage; ++i) {
      const word w = (*backing)[index + i];
      bytes_out[i * 4 + 0] = static_cast<uint8_t>(w & 0xff);
      bytes_out[i * 4 + 1] = static_cast<uint8_t>((w >> 8) & 0xff);
      bytes_out[i * 4 + 2] = static_cast<uint8_t>((w >> 16) & 0xff);
      bytes_out[i * 4 + 3] = static_cast<uint8_t>((w >> 24) & 0xff);
    }
  }
}

bool IsInsecurePageAddr(const PhysMemory& mem, paddr page_base) {
  if (!IsPageAligned(page_base)) {
    return false;
  }
  // The whole page must fall in insecure RAM. Regions are page-aligned, so
  // checking the base suffices, but we check the last word as well to stay
  // robust if the map constants ever change.
  return mem.RegionOf(page_base) == MemRegion::kInsecure &&
         mem.RegionOf(page_base + kPageSize - kWordSize) == MemRegion::kInsecure;
}

}  // namespace komodo::arm
