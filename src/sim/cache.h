// Set-associative LRU cache model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/types.h"

namespace dcprof::sim {

/// A set-associative cache with true-LRU replacement. Addresses are
/// looked up by cache line; the cache stores tags only (no data).
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg);

  /// Looks up `addr`; on a miss, fills the line (evicting LRU).
  /// Returns true on hit.
  bool access(Addr addr);

  /// True when `addr`'s line is the MRU way of its set. A hit there
  /// changes no replacement state, so the caller may resolve it inline:
  /// probe here, then record it with count_hit().
  bool mru_holds(Addr addr) const {
    return ways_[set_index(addr) * assoc_] == key_of(addr);
  }
  /// Counts a hit found by mru_holds() — the only state such a hit changes.
  void count_hit() { ++hits_; }

  /// Looks up without filling. Used by tests and inclusive-probe logic.
  bool contains(Addr addr) const;

  /// Invalidates the line holding `addr` if present.
  void invalidate(Addr addr);

  /// Drops all lines.
  void clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  unsigned line_bytes() const { return 1u << line_shift_; }
  std::size_t num_sets() const { return sets_; }
  unsigned associativity() const { return assoc_; }

 private:
  std::size_t set_index(Addr addr) const {
    return (addr >> line_shift_) & (sets_ - 1);
  }
  /// A way is one packed word: the line tag + 1, with 0 meaning invalid.
  Addr key_of(Addr addr) const { return (addr >> line_shift_) + 1; }

  unsigned line_shift_;
  std::size_t sets_;
  unsigned assoc_;
  // Ways within a set are kept in MRU-first order; eviction takes the back.
  std::vector<Addr> ways_;  // sets_ * assoc_, set-major
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Fully-associative LRU TLB over pages.
class Tlb {
 public:
  Tlb(unsigned entries, std::size_t page_bytes);

  /// Returns true on hit; on miss, installs the translation.
  bool access(Addr addr);

  /// Inline probe of the two most recent entries. On a hit it makes
  /// exactly access()'s update (a hit on the second entry swaps it to the
  /// front) and returns true; otherwise it changes nothing and returns
  /// false, and the caller falls back to access().
  bool access_recent(Addr addr) {
    const Addr key = key_of(addr);
    if (pages_[0] == key) {
      ++hits_;
      return true;
    }
    if (pages_[1] == key) {
      std::swap(pages_[0], pages_[1]);
      ++hits_;
      return true;
    }
    return false;
  }

  void clear();

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  /// An entry is the page number + 1; 0 marks an empty slot.
  Addr key_of(Addr addr) const { return (addr >> page_shift_) + 1; }

  unsigned page_shift_;
  unsigned entries_;
  unsigned size_ = 0;  ///< valid entries, MRU-first in pages_[0, size_)
  // Fixed at max(entries, 2) slots, so access_recent needs no bounds
  // check; slots past size_ stay 0 and never match.
  std::vector<Addr> pages_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace dcprof::sim
