// Set-associative LRU cache model.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/config.h"
#include "sim/override.h"
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
  /// changes no state, so the caller may resolve it inline.
  bool mru_holds(Addr addr) const {
    return ways_[set_index(addr) * assoc_] == key_of(addr);
  }

  /// Looks up without filling. Used by tests and inclusive-probe logic.
  bool contains(Addr addr) const;

  /// Invalidates the line holding `addr` if present.
  void invalidate(Addr addr);

  /// Drops all lines.
  void clear();

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
};

/// Fully-associative LRU TLB over pages. It can also carry up to
/// kMaxViews views: the TLBs of timing variants (MemorySystem::
/// add_variant), each fed this TLB's access stream minus the pages its
/// variant's overrides bypass (bypasses_tlb).
///
/// A view is LRU over a filtered stream, so it holds every page whose
/// last access it saw at the same recency as this TLB does: no other
/// page is more recent in the view than in the stream. Such an entry is
/// *linked* for the view and costs it nothing. The view keeps only the
/// pages it holds that no entry links — all of them older than every
/// linked entry — in its own newest-first list. An entry is *quiet*
/// when every view either links it or bypasses its page: a hit on it
/// changes nothing a view must see. Only a miss or a hit on an entry
/// that is not quiet steps the views.
class Tlb {
 public:
  /// Views one TLB carries at most: a view is one bit of an entry's masks.
  static constexpr unsigned kMaxViews = 64;

  Tlb(unsigned entries, std::size_t page_bytes);

  /// Returns true on hit; on miss, installs the translation. For a TLB
  /// without views.
  bool access(Addr addr);

  /// Inline probe of the two most recent entries. On a hit it makes
  /// exactly access()'s update (a hit on the second entry swaps it to the
  /// front) and returns true; otherwise it changes nothing and returns
  /// false, and the caller falls back to access(). An entry that is not
  /// quiet is stored with kUnquiet set, so its compare fails here: a hit
  /// this probe finds needs no view step.
  bool access_recent(Addr addr) {
    const Addr key = key_of(addr);
    if (pages_[0] == key) return true;
    if (pages_[1] == key) {
      std::swap(pages_[0], pages_[1]);
      return true;
    }
    return false;
  }

  /// access() for a TLB with views: on a miss, or a hit on an entry that
  /// is not quiet, also steps the views. Sets bit v of `view_misses`
  /// when view v missed (a view that bypasses the page never misses).
  bool access(Addr addr, std::uint64_t& view_misses);

  /// Adds a view whose bypassed pages `overrides` names; it starts as a
  /// copy of this TLB. `overrides` must outlive the TLB. Throws
  /// std::length_error past kMaxViews.
  void add_view(const OverrideMap& overrides);
  /// View `v`'s overrides changed: its pages may now bypass differently,
  /// so it holds every page in its own list, in order, and the entries'
  /// bypass marks are derived again.
  void rebase_view(unsigned v);

  /// Drops every entry, the views' included.
  void clear();

  /// Accesses that stepped the views.
  std::uint64_t view_steps() const { return view_steps_; }

 private:
  /// Marks a stored key whose entry is not quiet.
  static constexpr Addr kUnquiet = Addr{1} << 63;

  /// What the views hold of one entry: bit v of `linked` when view v
  /// holds the page at this entry's recency, of `bypass` when view v
  /// bypasses the page. `key` pairs it with its entry again after
  /// access_recent swapped entries 0 and 1 without it.
  struct Marks {
    Addr key = 0;
    std::uint64_t linked = 0;
    std::uint64_t bypass = 0;
  };
  struct View {
    const OverrideMap* overrides;
    std::vector<Addr> older;  ///< pages held but not linked, newest first
    unsigned held = 0;        ///< pages held: linked ones + older
  };

  /// An entry is the page number + 1; 0 marks an empty slot.
  Addr key_of(Addr addr) const { return (addr >> page_shift_) + 1; }
  bool bypassed(const View& view, Addr key) const {
    return bypasses_tlb(view.overrides->lookup((key - 1) << page_shift_));
  }
  /// The key to store for an entry with marks `m`.
  Addr stored(const Marks& m) const {
    return (m.linked ^ m.bypass) == all_views_ ? m.key : m.key | kUnquiet;
  }
  void pair_marks() {
    if (marks_[0].key != (pages_[0] & ~kUnquiet)) {
      std::swap(marks_[0], marks_[1]);
    }
  }
  /// Steps every view that entry 0 is not quiet for; returns the views
  /// that missed. Entry 0 is quiet afterwards.
  std::uint64_t step_views();

  unsigned page_shift_;
  unsigned entries_;
  unsigned size_ = 0;  ///< valid entries, MRU-first in pages_[0, size_)
  // Fixed at max(entries, 2) slots, so access_recent needs no bounds
  // check; slots past size_ stay 0 and never match.
  std::vector<Addr> pages_;
  std::vector<Marks> marks_;  ///< parallel to pages_; empty without views
  std::vector<View> views_;
  std::uint64_t all_views_ = 0;  ///< one bit per view
  std::uint64_t view_steps_ = 0;
};

}  // namespace dcprof::sim
