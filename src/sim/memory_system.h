// The memory hierarchy: per-core L1/L2 + TLB, per-socket L3, per-node DRAM
// controllers with bandwidth (queueing) contention, NUMA page placement.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/registry.h"
#include "sim/cache.h"
#include "sim/config.h"
#include "sim/override.h"
#include "sim/page_table.h"
#include "sim/types.h"

namespace dcprof::sim {

/// A NUMA node's memory controller: a leaky-bucket (processor-sharing)
/// queue. Each access deposits `service` cycles of work; the controller
/// drains `banks` cycles of work per cycle of forward time. The queueing
/// delay an access observes is the current backlog divided by the drain
/// rate — so every access issued into the same congestion sees a similar
/// delay. (A strict FIFO single-server model instead makes the *first*
/// miss after a barrier absorb the entire backlog while co-scheduled
/// misses ride free — an in-order artifact that misattributes latency
/// between arrays; out-of-order cores with miss-level parallelism show
/// IBS comparable delays on every queued miss.)
class DramController {
 public:
  DramController(Cycles service, unsigned banks)
      : service_(service), banks_(banks) {}

  /// Serves one access issued at thread-local time `now`; returns the
  /// queueing delay it observes. Queue state (backlog/last) is shared
  /// across the node's cores and order-dependent: callers present
  /// accesses in the team's deterministic schedule order.
  Cycles serve(Cycles now) {
    if (now > last_) {
      const Cycles drained = (now - last_) * banks_;
      backlog_ = backlog_ > drained ? backlog_ - drained : 0;
      last_ = now;
    }
    const Cycles wait = backlog_ / banks_;
    backlog_ += service_;
    ++accesses_;
    total_wait_ += wait;
    return wait;
  }

  std::uint64_t accesses() const { return accesses_; }
  Cycles total_wait() const { return total_wait_; }
  Cycles backlog() const { return backlog_; }

 private:
  Cycles service_;
  Cycles banks_;
  Cycles backlog_ = 0;  ///< queued work, in bank-cycles
  Cycles last_ = 0;     ///< latest access time seen
  std::uint64_t accesses_ = 0;
  Cycles total_wait_ = 0;
};

/// Per-core hardware stream prefetcher: tracks up to kStreams ascending
/// line streams; a fill whose line extends a tracked stream (within one
/// page — prefetchers do not cross 4 KB boundaries) is considered
/// prefetched. Strided or irregular access defeats it.
class StreamPrefetcher {
 public:
  /// Observes a DRAM fill of `line`; returns true if it was prefetched.
  bool access(Addr line, unsigned lines_per_page) {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i] + 1 == line) {
        streams_[i] = line;
        // Move to MRU.
        std::rotate(streams_.begin(), streams_.begin() + i,
                    streams_.begin() + i + 1);
        // A stream re-arms (pays full latency) at each page boundary.
        return line % lines_per_page != 0;
      }
    }
    // New stream displaces the LRU tracker.
    std::rotate(streams_.begin(), streams_.end() - 1, streams_.end());
    streams_[0] = line;
    return false;
  }

 private:
  std::array<Addr, 8> streams_{};
};

/// Aggregate hit counts per level, for machine-wide reporting. A
/// point-in-time view assembled from this machine's registry counters
/// (`sim.accesses{level=...}`, `sim.tlb_misses`, `sim.prefetched`).
struct MemLevelStats {
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l3_hits = 0;
  std::uint64_t local_dram = 0;
  std::uint64_t remote_dram = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t prefetched = 0;
  std::uint64_t total() const {
    return l1_hits + l2_hits + l3_hits + local_dram + remote_dram;
  }
};

/// What a timing variant (MemorySystem::add_variant) owns besides its
/// per-thread clocks and its DRAM controllers. Everything else — cache
/// tags, prefetchers, and the TLBs and page homes it does not own — it
/// reads from the primary.
struct VariantOwnership {
  /// Per-core TLBs: needed by a latency override, whose pages bypass the
  /// TLB, so the variant's TLB contents diverge from the primary's. They
  /// are views of the primary's TLBs (Tlb::add_view).
  bool tlb = false;
  /// A page table: needed by an interleave override, whose forced binding
  /// advances the process interleave cursor every later binding reads.
  bool page_table = false;
};

class MemorySystem {
 public:
  /// The variant index naming the primary machine itself.
  static constexpr int kPrimary = -1;

  explicit MemorySystem(const MachineConfig& cfg);

  /// Resolves one access by thread `tid` on `core` at thread-local time
  /// `now`: the inline MRU check (access_mru), else the full walk
  /// (walk_caches, then DRAM). The what-if override covering the address
  /// is looked up once and serves both. Every timing variant then times
  /// the same access against its own state (see add_variant).
  AccessResult access(ThreadId tid, CoreId core, Addr addr, bool is_store,
                      Cycles now);

  /// The inline check, for runs without primary overrides: resolves an
  /// L1 hit on the MRU way of its set whose page is one of the TLB's two
  /// most recent entries. Such a hit changes no replacement state beyond
  /// the swap Tlb::access would make; no placement-only variant times a
  /// cache hit differently, and the probe finds only quiet TLB entries,
  /// which no TLB-owning variant's view times differently either
  /// (Tlb::add_view). So this is exactly access()'s outcome. Returns
  /// false, changing nothing, for every other access.
  bool access_mru(CoreId core, Addr addr, bool is_store, AccessResult& r) {
    return inline_ok_ && mru_hit(core, addr, is_store, false, r);
  }

  const PageTable& page_table() const { return page_table_; }
  /// The allocator's page-table calls (PageTable::set_policy and
  /// release_range). They reach every variant's own page table too.
  void set_policy(Addr base, std::uint64_t size, PlacementPolicy policy,
                  NodeId fixed_node = kNoNode);
  void release_range(Addr base, std::uint64_t size);

  /// Patch the what-if override table of the primary (kPrimary) or of a
  /// variant (empty in normal runs). Entries patch the covered pages'
  /// placement at first touch and their DRAM cost at the home lookup;
  /// see sim/override.h. Mutate at quiescent points only. The primary
  /// takes no overrides while variants exist, and a variant takes only
  /// the kinds its VariantOwnership covers (std::logic_error otherwise).
  void add_override(int variant, Addr base, std::uint64_t size,
                    OverrideEntry entry);
  void remove_override(int variant, Addr base, std::uint64_t size);

  /// Adds a timing variant for threads 0..`threads`-1 and returns its
  /// index (0, 1, ...). A variant answers "what would this run's timing
  /// be under these overrides" without a second execution: overrides
  /// change where a page lives and what a miss costs, never a value or an
  /// address, so the op stream, every cache fill and every prefetcher
  /// decision are the primary's. The variant keeps only what its
  /// overrides can change — per-thread clock offsets from the primary,
  /// its own DRAM controllers, and the TLBs and page table `own` names —
  /// and starts as a copy of the primary's, so it times exactly like a
  /// machine that ran the same ops with its overrides as primary ones.
  /// Its TLBs are views of the primary's (Tlb::add_view), so at most
  /// Tlb::kMaxViews variants own TLBs (std::length_error past that).
  /// Needs an unpatched primary (std::logic_error otherwise).
  int add_variant(int threads, VariantOwnership own);
  int num_variants() const { return static_cast<int>(variants_.size()); }

  /// A barrier moving every thread's primary clock from `clocks[tid]` to
  /// `to`: each variant's threads move to that variant's own maximum.
  void sync_variant_clocks(std::span<const Cycles> clocks, Cycles to);
  /// Thread `tid`'s clock in `variant` when its primary clock is `clock`.
  Cycles variant_clock(int variant, ThreadId tid, Cycles clock) const {
    if (variant == kPrimary) return clock;
    return clock + static_cast<Cycles>(
                       variant_at(variant).offset[static_cast<std::size_t>(
                           tid)]);
  }
  const DramController& controller(NodeId node, int variant = kPrimary) const {
    const auto& ctl =
        variant == kPrimary ? controllers_ : variant_at(variant).controllers;
    return ctl[static_cast<std::size_t>(node)];
  }

  MemLevelStats stats() const;

  /// Drops all cached state (not page placements), the variants' TLB
  /// views included. Useful between phases.
  void flush_caches();

  /// Accesses that stepped the TLB-owning variants' views (a primary TLB
  /// miss, or a hit on an entry that is not quiet), over all cores.
  std::uint64_t variant_tlb_steps() const;

 private:
  /// One timing variant: the state its overrides can make differ from
  /// the primary's (add_variant).
  struct Variant {
    explicit Variant(std::size_t page_bytes) : overrides(page_bytes) {}
    OverrideMap overrides;
    /// Per thread: this variant's clock minus the primary's. Changes only
    /// on an access whose latency differs, and at barriers.
    std::vector<std::int64_t> offset;
    std::vector<DramController> controllers;  // per NUMA node
    /// Its view in every core's TLB; -1 unless it owns TLBs.
    int tlb_view = -1;
    std::unique_ptr<PageTable> page_table;  // null unless owned
  };

  const Variant& variant_at(int v) const {
    return *variants_.at(static_cast<std::size_t>(v));
  }
  /// Recomputes inline_ok_ after the primary's overrides changed.
  void update_inline_ok() { inline_ok_ = overrides_.empty(); }

  /// The state-free hit: L1 MRU way, and the TLB's two most recent
  /// entries unless `skip_tlb` (a latency override bypasses the TLB).
  bool mru_hit(CoreId core, Addr addr, bool is_store, bool skip_tlb,
               AccessResult& r) {
    const auto ci = static_cast<std::size_t>(core);
    if (!l1_[ci].mru_holds(addr) ||
        !(skip_tlb || tlbs_[ci].access_recent(addr))) {
      return false;
    }
    tm_.l1.inc();
    r.latency = is_store ? cfg_.lat.store_hit : cfg_.lat.l1;
    return true;  // level kL1, no TLB miss: r's defaults
  }
  /// TLB + L1/L2/L3 walk; fills caches on miss. Returns true when a
  /// cache satisfied the access (`r` is complete); false when it falls
  /// through to DRAM (`r` carries the TLB outcome and walk latency so
  /// far). With `skip_tlb` (bypasses_tlb) the TLB is not consulted,
  /// charged or filled. Sets bit v of `view_misses` when TLB view v
  /// missed. Cache fills do not depend on any override.
  bool walk_caches(CoreId core, Addr addr, bool is_store, AccessResult& r,
                   bool skip_tlb, std::uint64_t& view_misses);
  /// Consults (and trains) `core`'s stream prefetcher for a DRAM fill of
  /// `addr`. Config-gated; called once per fill, in issue order.
  bool consult_prefetcher(CoreId core, Addr addr);

  // What an override changes, stated once: the TLB-bypass rule
  // (bypasses_tlb, in sim/override.h, which the TLB views apply too),
  // touch_page and resolve_fill. The primary walk and every variant
  // apply all three.

  /// Binds the page of `addr` in `pt`, honouring an interleave override's
  /// forced binding; plain first-touch semantics when `ov` is null.
  static NodeId touch_page(PageTable& pt, Addr addr, NodeId toucher,
                           const OverrideEntry* ov);
  /// The DRAM leg of a fill under `ov` (may be null): the kZero and
  /// kNextLevel short cuts, the home a placement or latency fix serves
  /// it from, and the queueing on that home's controller in
  /// `controllers` at `now`. Adds the leg's latency to `r` (kZero: the
  /// whole access costs 0) and sets its level, home, prefetched and
  /// queue_wait.
  void resolve_fill(const OverrideEntry* ov, NodeId home, NodeId toucher,
                    bool prefetched, Cycles now,
                    std::vector<DramController>& controllers,
                    AccessResult& r) const;

  /// Variant timing of a cache hit `r`: only a TLB-owning variant can
  /// differ, by its view's outcome (bit v of `view_misses`).
  void time_hit(ThreadId tid, const AccessResult& r,
                std::uint64_t view_misses);
  /// Variant timing of the DRAM fill `r` (page bound to `home` in the
  /// primary, issued at primary time `now`).
  void time_fill(ThreadId tid, Addr addr, NodeId toucher, NodeId home,
                 bool prefetched, Cycles now, const AccessResult& r,
                 std::uint64_t view_misses);
  /// A TLB-owning variant's overrides changed: rebase its views.
  void rebase_tlb_views(const Variant& v);

  MachineConfig cfg_;
  std::vector<SetAssocCache> l1_;   // per core
  std::vector<SetAssocCache> l2_;   // per core
  std::vector<SetAssocCache> l3_;   // per socket
  std::vector<Tlb> tlbs_;           // per core
  std::vector<StreamPrefetcher> prefetchers_;  // per core
  std::vector<DramController> controllers_;  // per NUMA node
  PageTable page_table_;
  OverrideMap overrides_;
  /// access_mru's single test: no primary overrides.
  bool inline_ok_ = true;

  // Registry-backed level counts (this instance's private cells; the
  // global registry additionally sums them machine-wide).
  struct Telemetry {
    obs::Counter l1, l2, l3, local_dram, remote_dram, tlb_misses, prefetched;
  };
  Telemetry tm_;
  std::vector<std::unique_ptr<Variant>> variants_;
  /// The variants owning TLBs; index = their view (Variant::tlb_view).
  std::vector<Variant*> tlb_variants_;
};

}  // namespace dcprof::sim
