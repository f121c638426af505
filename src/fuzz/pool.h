// Per-worker world pools for the fuzzing subsystem (DESIGN.md §11).
//
// Every oracle run needs one or two freshly booted Worlds (machine + monitor
// + OS model). Constructing one zeroes ~17 MB of simulated physical memory
// and replays secure boot; for short traces that setup dwarfs the oracle
// work itself — and the paired-execution oracles (noninterference, interp)
// pay it twice per trace. A WorldPool keeps booted worlds alive between
// traces and resets them with the snapshot-reset machinery instead:
//
//   * at first construction the world's memory turns on dirty-page tracking
//     and a full copy of the post-boot MachineState is captured (one shared
//     copy per world geometry, since boot is deterministic);
//   * Acquire hands out a pooled world after MachineState::ResetTo(snapshot)
//     — which rewrites only the pages the previous trace dirtied and
//     resets the page-table footprint — plus Monitor::ResetForReuse and
//     Os::ResetForReuse for the C++-side bookkeeping.
//
// The result is state-equal to a fresh construction (pinned by
// tests/fuzz/parallel_campaign_test.cc) at a small fraction of the cost.
//
// Pools are deliberately NOT thread-safe: the parallel campaign driver gives
// each worker thread its own pool, which also keeps every Observability
// instance, machine and monitor confined to one thread.
#ifndef SRC_FUZZ_POOL_H_
#define SRC_FUZZ_POOL_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/os/world.h"

namespace komodo::fuzz {

using arm::word;

// The monitor configuration every fuzz oracle runs under: bounded enclave
// dispatch so victim spin loops and accidentally-built runaway enclaves
// interrupt quickly instead of burning the 50M-step default.
Monitor::Config FuzzMonitorConfig();

class WorldPool {
 public:
  explicit WorldPool(const Monitor::Config& config = FuzzMonitorConfig(),
                     bool reuse = true)
      : config_(config), reuse_(reuse) {}
  WorldPool(const WorldPool&) = delete;
  WorldPool& operator=(const WorldPool&) = delete;

  struct Stats {
    uint64_t acquires = 0;        // total leases handed out
    uint64_t constructions = 0;   // fresh World constructions
    uint64_t resets = 0;          // snapshot-resets of a pooled world
    uint64_t pages_restored = 0;  // dirty pages rewritten across all resets
  };

  // Scoped lease of a booted, pristine world; returns it to the pool on
  // destruction. The world reference stays valid for the lease's lifetime.
  class Lease {
   public:
    Lease(Lease&& o) noexcept : pool_(o.pool_), slot_(std::move(o.slot_)) {
      o.pool_ = nullptr;
    }
    Lease& operator=(Lease&&) = delete;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease();

    os::World& world() { return *slot_.world; }

   private:
    friend class WorldPool;
    struct Slot {
      std::unique_ptr<os::World> world;
      // Post-boot machine snapshot; shared across every slot of the same
      // geometry (boot is deterministic, so the snapshots are identical).
      std::shared_ptr<const arm::MachineState> snapshot;
    };
    Lease(WorldPool* pool, Slot slot) : pool_(pool), slot_(std::move(slot)) {}

    WorldPool* pool_;
    Slot slot_;
  };

  // Hands out a world with `pages` secure pages, booted and in its pristine
  // post-boot state: a pooled world reset via snapshot, or a fresh
  // construction when the pool is empty (or reuse is disabled).
  Lease Acquire(word pages);

  const Stats& stats() const { return stats_; }
  bool reuse() const { return reuse_; }

 private:
  friend class Lease;
  struct Bucket {
    std::shared_ptr<const arm::MachineState> snapshot;
    std::vector<Lease::Slot> free;
  };
  void Release(Lease::Slot slot);

  Monitor::Config config_;
  bool reuse_;
  std::unordered_map<word, Bucket> buckets_;  // keyed by secure-page count
  Stats stats_;
};

}  // namespace komodo::fuzz

#endif  // SRC_FUZZ_POOL_H_
