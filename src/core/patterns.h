// Per-variable access-pattern analytics: the memory-centric counters a
// `.dcpf` v4 profile carries next to its CCTs. For every profiled
// variable (keyed by storage class + a class-specific id) the table
// accumulates
//   * a memory-level x channel matrix — how many sampled loads/stores
//     were satisfied by L1/L2/L3/local-DRAM/remote-DRAM;
//   * a reuse-distance histogram — for each re-touch of a cache line,
//     how many of the variable's sampled accesses happened since the
//     line was last touched (power-of-2 buckets, DINAMITE-style);
//   * a stride histogram over successive sampled addresses, from which
//     the analyzer classifies sequential / strided / random access;
//   * the touched-line count (cold misses == footprint in cache lines).
//
// Two types split the work. AccessPatternTable is the durable data: the
// counters a profile serializes, merges and compares, and nothing else.
// PatternRecorder fills one table from one thread's samples, in sample
// order at attribution time, and owns the transient state recording
// needs (per-line last-access indices, the previous sampled address,
// two memos). The production profiler keeps one recorder per thread beside
// its other attribution caches, so that state never enters a profile;
// the verify oracle records with its own unmemoized recorder
// (verify/oracle.h), and the differential checks compare the two
// byte for byte. Both merge paths (materialized and streaming) fold in
// key order, which is part of the serialization contract.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace dcprof::core {

/// Histogram cells for reuse/stride data: power-of-2 buckets exactly as
/// obs::Histogram lays them out (bucket i counts values whose bit width
/// is i), truncated to 32 cells — value 0 lands in bucket 0, anything
/// >= 2^31 clamps into the top bucket.
inline constexpr std::size_t kPatternBuckets = 32;

/// Cache-line granularity used for reuse distance and footprint.
inline constexpr std::uint64_t kPatternLineShift = 6;  // 64-byte lines

/// Memory levels a sample can be satisfied from (mirrors sim::MemLevel
/// so core does not depend on sim headers).
inline constexpr std::size_t kNumMemLevels = 5;

/// Identifies one variable inside a pattern table. `id` is
/// class-specific: the interned name StringId for static and stack
/// variables, the variable-identifying allocation-path IP for heap
/// variables (the innermost caller of the allocator — where wrappers
/// are annotated — falling back to the allocation instruction), 0 for
/// unknown data. kNoMem samples touch no data and are never recorded.
struct VarPatternKey {
  std::uint8_t cls = 0;  ///< StorageClass, widened for serialization
  std::uint64_t id = 0;

  friend bool operator<(const VarPatternKey& a, const VarPatternKey& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    return a.id < b.id;
  }
  friend bool operator==(const VarPatternKey&,
                         const VarPatternKey&) = default;
};

/// The durable per-variable counters (everything here serializes).
struct VarPattern {
  std::uint64_t accesses = 0;    ///< sampled accesses recorded
  std::uint64_t cold_lines = 0;  ///< first-touched cache lines (footprint)
  /// Sampled access counts by satisfying memory level and channel
  /// ([level][0] = loads, [level][1] = stores).
  std::uint64_t level_channel[kNumMemLevels][2] = {};
  std::uint64_t reuse[kPatternBuckets] = {};   ///< reuse-distance histogram
  std::uint64_t stride[kPatternBuckets] = {};  ///< |addr delta| histogram

  VarPattern& operator+=(const VarPattern& o);
  friend bool operator==(const VarPattern&, const VarPattern&) = default;

  std::uint64_t loads() const;
  std::uint64_t stores() const;
  std::uint64_t strides_recorded() const;
};

/// Power-of-2 bucket index for a reuse distance or stride: the
/// obs::Histogram cell scheme (bucket = bit width) clamped to
/// kPatternBuckets. Inline — the sample hot path buckets twice per
/// access. test_patterns pins the equivalence with obs::Histogram.
inline std::size_t pattern_bucket(std::uint64_t v) {
  return std::min<std::size_t>(static_cast<std::size_t>(std::bit_width(v)),
                               kPatternBuckets - 1);
}
/// Upper bound of bucket `i` as obs::Histogram reports it (exclusive:
/// bucket i holds values of bit width i); ~0 for the clamped top bucket.
inline std::uint64_t pattern_bucket_limit(std::size_t i) {
  return i >= kPatternBuckets - 1 ? ~0ull : 1ull << i;
}

/// The per-profile table: ordered by key, so iteration order ==
/// serialization order == merge order, deterministically.
class AccessPatternTable {
 public:
  /// The counters of one variable, created zeroed on first use. Map
  /// nodes are pointer-stable and the table never erases, so the
  /// reference stays valid while the table lives (PatternRecorder's memo
  /// keeps it).
  VarPattern& entry(std::uint8_t cls, std::uint64_t id) {
    return vars_[VarPatternKey{cls, id}];
  }

  /// Folds one already-durable record in (deserialization and the
  /// streaming merge).
  void add(std::uint8_t cls, std::uint64_t id, const VarPattern& p) {
    entry(cls, id) += p;
  }

  /// Remaps a source key while merging: returns the id valid in the
  /// destination profile (re-interned name for static/stack variables).
  using Remap =
      std::function<std::uint64_t(std::uint8_t cls, std::uint64_t id)>;

  /// Merges `src` into this table, id-remapped, in src key order — the
  /// exact op order the streaming merge replays off serialized bytes.
  void merge_from(const AccessPatternTable& src, const Remap& remap);

  const std::map<VarPatternKey, VarPattern>& vars() const { return vars_; }
  bool empty() const { return vars_.empty(); }
  std::size_t size() const { return vars_.size(); }

  friend bool operator==(const AccessPatternTable&,
                         const AccessPatternTable&) = default;

 private:
  std::map<VarPatternKey, VarPattern> vars_;
};

/// Records one thread's sampled memory accesses into one table. Not
/// copyable: its memos point into the table and into its own state.
class PatternRecorder {
 public:
  explicit PatternRecorder(AccessPatternTable& table) : table_(&table) {}
  PatternRecorder(const PatternRecorder&) = delete;
  PatternRecorder& operator=(const PatternRecorder&) = delete;

  /// Records one sampled memory access at attribution time. `level`
  /// indexes kNumMemLevels (sim::MemLevel values cast down).
  void record(std::uint8_t cls, std::uint64_t id, std::uint64_t addr,
              bool is_store, std::uint8_t level);

 private:
  /// Open-addressing cache-line -> last-access-index table (power-of-2
  /// capacity, multiplicative hash, linear probing). The sample hot
  /// path pays one probe per access, so this replaces
  /// std::unordered_map, whose prime-modulo bucket math alone costs a
  /// hardware division per touch. Slots use last == 0 as the empty
  /// marker — stored indices are the 1-based access counter, never 0.
  /// Never copied (data_ points into slots_): it lives in a map node of
  /// a recorder, which is not copyable.
  class LineTable {
   public:
    /// Returns {slot for the line's last-access index, first_touch}.
    /// On a first touch the slot is seeded with `index`; the caller
    /// updates it on re-touches. Inline: one probe per sampled access.
    std::pair<std::uint64_t*, bool> touch(std::uint64_t line,
                                          std::uint64_t index) {
      if (used_ >= grow_at_) grow();
      // Slots store line + 1 so key 0 marks an empty slot (lines are
      // addr >> 6, so the +1 cannot wrap).
      const std::uint64_t key = line + 1;
      // Fibonacci hash: one multiply spreads strided line sequences
      // that would cluster under an identity hash.
      std::size_t i =
          static_cast<std::size_t>(line * 0x9e3779b97f4a7c15ull) & mask_;
      for (;; i = (i + 1) & mask_) {
        Slot& s = data_[i];
        if (s.key == key) return {&s.last, false};
        if (s.key == 0) {
          s.key = key;
          s.last = index;
          ++used_;
          return {&s.last, true};
        }
      }
    }

   private:
    struct Slot {
      std::uint64_t key = 0;  ///< line + 1; 0 = empty slot
      std::uint64_t last = 0;
    };
    void grow();

    std::vector<Slot> slots_;
    /// Hot-path copies of slots_ geometry (data pointer + size-1), so a
    /// probe does not reload the vector header. grow() keeps them fresh.
    Slot* data_ = nullptr;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
    std::size_t grow_at_ = 0;  ///< grow at 50% load (0 = not allocated)
  };

  /// Per-variable recording state.
  struct Runtime {
    std::uint64_t last_addr = 0;
    bool has_last = false;
    LineTable line_last;
    /// Same-line memo: repeated samples of one hot line skip the probe.
    /// memo_slot always points at the most recent touch's slot, so it
    /// can never be stale across a grow (which only happens inside a
    /// touch that then refreshes the memo).
    std::uint64_t memo_line = 0;
    std::uint64_t* memo_slot = nullptr;
  };

  AccessPatternTable* table_;
  std::map<VarPatternKey, Runtime> runtime_;

  /// Single-entry variable memo: consecutive samples overwhelmingly hit
  /// the same variable, and map nodes are pointer-stable, so a key
  /// compare replaces two tree walks on the hot path.
  VarPatternKey memo_key_{};
  VarPattern* memo_pattern_ = nullptr;
  Runtime* memo_runtime_ = nullptr;

  /// Cold path of record(): the two map lookups, out of line so the
  /// inlined hot path stays branch-light and small.
  void memo_lookup(const VarPatternKey& key);
};

// Inline: called once per sampled memory access from the attribution
// hot path, which run_bench.sh holds to a <= 5% pattern-recording
// overhead (BM_SampleHandlerPatterns).
inline void PatternRecorder::record(std::uint8_t cls, std::uint64_t id,
                                    std::uint64_t addr, bool is_store,
                                    std::uint8_t level) {
  const VarPatternKey key{cls, id};
  if (memo_pattern_ == nullptr || !(memo_key_ == key)) memo_lookup(key);
  VarPattern& p = *memo_pattern_;
  Runtime& rt = *memo_runtime_;
  ++p.accesses;
  if (level < kNumMemLevels) ++p.level_channel[level][is_store ? 1 : 0];
  const std::uint64_t line = addr >> kPatternLineShift;
  std::uint64_t* last;
  bool first_touch;
  if (line == rt.memo_line && rt.memo_slot != nullptr) {
    last = rt.memo_slot;  // just touched: by definition not a first touch
    first_touch = false;
  } else {
    const auto touched = rt.line_last.touch(line, p.accesses);
    last = touched.first;
    first_touch = touched.second;
    rt.memo_line = line;
    rt.memo_slot = last;
  }
  if (first_touch) {
    ++p.cold_lines;
  } else {
    // Reuse distance == sampled accesses to this variable since the line
    // was last touched (an approximation of true reuse distance at the
    // sampling rate, like any sampled-reuse profiler).
    ++p.reuse[pattern_bucket(p.accesses - *last)];
    *last = p.accesses;
  }
  if (rt.has_last) {
    const std::uint64_t delta =
        addr >= rt.last_addr ? addr - rt.last_addr : rt.last_addr - addr;
    ++p.stride[pattern_bucket(delta)];
  }
  rt.last_addr = addr;
  rt.has_last = true;
}

}  // namespace dcprof::core
