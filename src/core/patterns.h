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
// One implementation is shared by the production profiler, the verify
// oracle, and both merge paths (materialized and streaming): the
// recording and fold order is part of the serialization contract, so a
// single definition is what keeps profiles byte-identical under the
// fast/de-optimized/oracle three-way differential checks. Tables are
// per-thread single-writer: each thread's samples are recorded in
// sample order at attribution time, and results are only read after
// measurement ends.
//
// Transient recording state (per-line last-access indices, the previous
// sampled address) lives inside the table but is NOT serialized and does
// not participate in equality: only the durable histograms do.
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
  friend bool operator==(const VarPatternKey& a, const VarPatternKey& b) {
    return a.cls == b.cls && a.id == b.id;
  }
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
  friend bool operator==(const VarPattern& a, const VarPattern& b);

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
  /// Records one sampled memory access at attribution time. `level`
  /// indexes kNumMemLevels (sim::MemLevel values cast down).
  void record(std::uint8_t cls, std::uint64_t id, std::uint64_t addr,
              bool is_store, std::uint8_t level);

  /// Folds one already-durable record in (deserialization and the
  /// streaming merge). Transient reuse/stride state is untouched: merged
  /// tables only aggregate, they do not keep recording.
  void add(std::uint8_t cls, std::uint64_t id, const VarPattern& p);

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

  /// Durable contents only (transient recording state excluded).
  friend bool operator==(const AccessPatternTable& a,
                         const AccessPatternTable& b) {
    return a.vars_ == b.vars_;
  }

  // The hot-path memo below caches raw node pointers into vars_ and
  // runtime_; map nodes are stable across inserts (and the table never
  // erases), but a copy must not inherit pointers into the source.
  AccessPatternTable() = default;
  AccessPatternTable(const AccessPatternTable& o)
      : vars_(o.vars_), runtime_(o.runtime_) {}
  AccessPatternTable(AccessPatternTable&& o) noexcept
      : vars_(std::move(o.vars_)), runtime_(std::move(o.runtime_)) {}
  AccessPatternTable& operator=(const AccessPatternTable& o) {
    vars_ = o.vars_;
    runtime_ = o.runtime_;
    memo_pattern_ = nullptr;
    memo_runtime_ = nullptr;
    return *this;
  }
  AccessPatternTable& operator=(AccessPatternTable&& o) noexcept {
    vars_ = std::move(o.vars_);
    runtime_ = std::move(o.runtime_);
    memo_pattern_ = nullptr;
    memo_runtime_ = nullptr;
    return *this;
  }

 private:
  /// Transient open-addressing cache-line -> last-access-index table
  /// (power-of-2 capacity, multiplicative hash, linear probing). The
  /// sample hot path pays one probe per access, so this replaces
  /// std::unordered_map, whose prime-modulo bucket math alone costs a
  /// hardware division per touch. Slots use last == 0 as the empty
  /// marker — stored indices are the 1-based access counter, never 0.
  class LineTable {
   public:
    /// Returns {slot for the line's last-access index, first_touch}.
    /// On a first touch the slot is seeded with `index`; the caller
    /// updates it on re-touches. Inline: one probe per sampled access.
    LineTable() = default;
    LineTable(const LineTable& o)
        : slots_(o.slots_), mask_(o.mask_), used_(o.used_),
          grow_at_(o.grow_at_) {
      data_ = slots_.data();
    }
    LineTable(LineTable&&) noexcept = default;  // buffer moves intact
    LineTable& operator=(const LineTable& o) {
      slots_ = o.slots_;
      mask_ = o.mask_;
      used_ = o.used_;
      grow_at_ = o.grow_at_;
      data_ = slots_.data();
      return *this;
    }
    LineTable& operator=(LineTable&&) noexcept = default;

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
    /// probe does not reload the vector header. grow() keeps them
    /// fresh; the copy operations above re-point data_ at the copy's
    /// own buffer.
    Slot* data_ = nullptr;
    std::size_t mask_ = 0;
    std::size_t used_ = 0;
    std::size_t grow_at_ = 0;  ///< grow at 50% load (0 = not allocated)
  };

  /// Transient per-variable recording state (never serialized).
  struct Runtime {
    std::uint64_t last_addr = 0;
    bool has_last = false;
    LineTable line_last;
    /// Same-line memo: repeated samples of one hot line skip the probe.
    /// memo_slot always points at the most recent touch's slot, so it
    /// can never be stale across a grow (which only happens inside a
    /// touch that then refreshes the memo). Copies drop it — it would
    /// point into the source's slot buffer.
    std::uint64_t memo_line = 0;
    std::uint64_t* memo_slot = nullptr;

    Runtime() = default;
    Runtime(const Runtime& o)
        : last_addr(o.last_addr), has_last(o.has_last),
          line_last(o.line_last) {}
    Runtime(Runtime&&) noexcept = default;  // slot buffer moves intact
    Runtime& operator=(const Runtime& o) {
      last_addr = o.last_addr;
      has_last = o.has_last;
      line_last = o.line_last;
      memo_line = 0;
      memo_slot = nullptr;
      return *this;
    }
    Runtime& operator=(Runtime&&) noexcept = default;
  };

  std::map<VarPatternKey, VarPattern> vars_;
  std::map<VarPatternKey, Runtime> runtime_;

  /// Single-entry recording memo: consecutive samples overwhelmingly
  /// hit the same variable, and map nodes are pointer-stable, so a key
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
inline void AccessPatternTable::record(std::uint8_t cls, std::uint64_t id,
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
