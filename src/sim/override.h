// What-if override tables: per-page-range placement/latency patches the
// causal advisor applies when re-running a workload to compute an *exact*
// virtual speedup (re-execute with the fix applied, not an estimate).
// The map is consulted by MemorySystem at the two points a fix can act:
// first touch (page binding) and the DRAM-home lookup of a fill.
#pragma once

#include <array>
#include <cstdint>
#include <map>

#include "sim/types.h"

namespace dcprof::sim {

/// Placement patch for a variable's pages.
enum class PlacementOverride : std::uint8_t {
  kNone,
  /// Every DRAM fill is served by the toucher's own controller — the
  /// perfect-locality bound of a first-touch/libnuma placement fix.
  kLocal,
  /// Pages bind round-robin across nodes at first touch (the libnuma
  /// numa_alloc_interleaved fix), sharing the process interleave cursor.
  kInterleave,
};

/// Latency patch for a variable's DRAM fills. Either latency override
/// also bypasses the TLB for the variable's accesses (not consulted, not
/// charged, not filled): the modeled fix shrinks the variable's
/// translation footprint to nothing, so *other* variables' TLB entries
/// survive instead of being thrashed by its strided walk — a real layout
/// fix's largest second-order effect.
enum class LatencyOverride : std::uint8_t {
  kNone,
  /// Misses are promoted one level: remote DRAM costs local DRAM, local
  /// DRAM costs an L3 hit (a data-layout fix that restores spatial —
  /// and, with it, translation — locality).
  kNextLevel,
  /// Oracle bound: the variable's memory-side latency vanishes entirely
  /// and its fills consume no controller bandwidth. Used by the property
  /// tests as the ceiling no realizable fix may exceed.
  kZero,
};

const char* to_string(PlacementOverride p);
const char* to_string(LatencyOverride l);

struct OverrideEntry {
  PlacementOverride placement = PlacementOverride::kNone;
  LatencyOverride latency = LatencyOverride::kNone;

  bool none() const {
    return placement == PlacementOverride::kNone &&
           latency == LatencyOverride::kNone;
  }
};

/// Page-granular interval table of override entries. Ranges are added
/// per variable (a heap block or a static segment) and rounded outward
/// to whole pages — placement is a per-page property, so a boundary page
/// shared with a neighbouring block is patched too. On overlap the
/// first-installed range wins, which keeps installation order-dependent
/// slop deterministic. Lookup is only ever paid in what-if runs: normal
/// runs keep the map empty and `empty()` is one branch per access. A
/// small direct-mapped page -> entry cache answers repeat lookups of a
/// page without the O(log ranges) tree probe; every mutation resets it,
/// because its entry pointers die with erased map nodes.
class OverrideMap {
 public:
  /// `page_bytes` must be a power of two (as the machine's page size is).
  explicit OverrideMap(std::size_t page_bytes);

  /// Patches the pages backing [base, base+size).
  void add_range(Addr base, std::uint64_t size, OverrideEntry entry);

  /// Drops the patch from pages intersecting [base, base+size) (a freed
  /// block's range must not leak onto the heap's next tenant).
  void remove_range(Addr base, std::uint64_t size);

  void clear() {
    ranges_.clear();
    reset_cache();
  }
  bool empty() const { return ranges_.empty(); }
  std::size_t num_ranges() const { return ranges_.size(); }
  std::uint64_t num_pages() const;

  /// Entry covering `addr`'s page, or nullptr.
  const OverrideEntry* lookup(Addr addr) const {
    const Addr page = addr >> page_shift_;
    const CacheSlot& slot = cache_[page % kCacheSlots];
    if (slot.key == page + 1) return slot.entry;
    return lookup_miss(page);
  }

 private:
  struct Range {
    Addr end_page;  ///< exclusive
    OverrideEntry entry;
  };
  /// One cached lookup: `key` is page + 1 (0 = empty); `entry` may be
  /// null (the page is known to be unpatched).
  struct CacheSlot {
    Addr key = 0;
    const OverrideEntry* entry = nullptr;
  };
  static constexpr std::size_t kCacheSlots = 64;

  /// Tree probe for `page`; fills its cache slot.
  const OverrideEntry* lookup_miss(Addr page) const;
  void reset_cache() { cache_.fill(CacheSlot{}); }

  std::size_t page_bytes_;
  unsigned page_shift_;
  std::map<Addr, Range> ranges_;  ///< first page -> range
  // Lookups are const but fill the cache; one host thread drives a
  // machine (sim/machine.h), so it needs no synchronization.
  mutable std::array<CacheSlot, kCacheSlots> cache_{};
};

}  // namespace dcprof::sim
