// Heap variable tracking: an interval map from live address ranges to the
// canonicalized allocation call path that *is* the variable's identity.
// Allocations sharing a call path share one AllocPath instance, which is
// how "100 allocations in a loop" coalesce into a single logical variable
// (the paper's Figure 2 semantics). AllocPaths are immutable once built,
// so cross-thread path copies need no lock.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "obs/registry.h"
#include "sim/types.h"

namespace dcprof::core {

/// An immutable allocation calling context: outermost-first call-site IPs
/// plus the allocation instruction itself.
struct AllocPath {
  std::vector<sim::Addr> frames;
  sim::Addr alloc_ip = 0;
  /// Pattern-table id of the heap variable this path allocates: the
  /// innermost caller (where allocator wrappers are annotated), falling
  /// back to the allocation instruction. Derived from the fields above
  /// and stored by AllocPathSet::intern so the sample hot path reads
  /// one field instead of chasing the frame vector.
  std::uint64_t pattern_id = 0;

  bool operator==(const AllocPath& o) const {
    return alloc_ip == o.alloc_ip && frames == o.frames;
  }
};

/// Interns AllocPaths so identical paths share one instance.
class AllocPathSet {
 public:
  std::shared_ptr<const AllocPath> intern(AllocPath path);
  std::size_t size() const { return paths_.size(); }

 private:
  struct Hash {
    std::size_t operator()(const AllocPath& p) const {
      std::size_t h = std::hash<sim::Addr>{}(p.alloc_ip);
      for (const sim::Addr a : p.frames) {
        h = h * 1099511628211ull ^ std::hash<sim::Addr>{}(a);
      }
      return h;
    }
  };
  std::unordered_map<AllocPath, std::shared_ptr<const AllocPath>, Hash>
      paths_;
};

/// One live heap block.
struct HeapBlock {
  sim::Addr base = 0;
  std::uint64_t size = 0;
  std::shared_ptr<const AllocPath> path;  ///< null for untracked blocks
  /// Copy of path->pattern_id (0 when untracked), kept here so the
  /// sample hot path reads it without chasing the shared_ptr.
  std::uint64_t pattern_id = 0;
};

/// Point-in-time view of a map's registry counters
/// (`varmap.lookups{outcome=mru_hit|tree_probe}`).
struct VarMapStats {
  std::uint64_t mru_hits = 0;
  std::uint64_t mru_misses = 0;  ///< lookups that fell through to the tree
};

/// Address-interval map over live heap blocks. Lookups check a small MRU
/// cache of recently hit blocks before probing the tree — consecutive
/// memory samples overwhelmingly land in the same live block. The cache
/// never changes a lookup's result (entries are invalidated on erase and
/// map nodes are pointer-stable), only its cost.
class HeapVarMap {
 public:
  void insert(sim::Addr base, std::uint64_t size,
              std::shared_ptr<const AllocPath> path);

  /// Removes the block starting at `base`; returns it if known.
  std::optional<HeapBlock> erase(sim::Addr base);

  /// The live block covering `addr`, if any.
  const HeapBlock* find(sim::Addr addr) const;

  std::size_t size() const { return blocks_.size(); }

  /// Disabling flushes the cache; every find probes the tree (ablation
  /// baseline for the equivalence tests).
  void set_mru_enabled(bool enabled);
  bool mru_enabled() const { return mru_enabled_; }
  VarMapStats stats() const;

 private:
  static constexpr std::size_t kMruWays = 4;

  std::map<sim::Addr, HeapBlock> blocks_;  // keyed by base
  bool mru_enabled_ = true;
  mutable const HeapBlock* mru_[kMruWays] = {};  // most recent first

  struct Telemetry {
    obs::Counter mru_hits, tree_probes;
    Telemetry();
  };
  mutable Telemetry tm_;
};

}  // namespace dcprof::core
