// The memory hierarchy: per-core L1/L2 + TLB, per-socket L3, per-node DRAM
// controllers with bandwidth (queueing) contention, NUMA page placement.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
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

class MemorySystem {
 public:
  explicit MemorySystem(const MachineConfig& cfg);

  /// Resolves one access by `core` at thread-local time `now`.
  AccessResult access(CoreId core, Addr addr, bool is_store, Cycles now);

  PageTable& page_table() { return page_table_; }
  const PageTable& page_table() const { return page_table_; }

  /// What-if override table (empty in normal runs). Entries patch the
  /// covered pages' placement at first touch and their DRAM cost at the
  /// home lookup; see sim/override.h. Mutate at quiescent points only.
  OverrideMap& overrides() { return overrides_; }
  const OverrideMap& overrides() const { return overrides_; }
  MemLevelStats stats() const;
  const DramController& controller(NodeId node) const {
    return controllers_[static_cast<std::size_t>(node)];
  }

  /// Drops all cached state (not page placements). Useful between phases.
  void flush_caches();

 private:
  /// TLB + L1/L2/L3 walk; fills caches on miss. Returns true when a
  /// cache satisfied the access (`r` is complete); false when it falls
  /// through to DRAM (`r` carries the TLB outcome and walk latency so
  /// far). With `skip_tlb` the TLB is bypassed entirely — not consulted,
  /// not charged, not filled — used for latency-overridden accesses,
  /// whose modeled fix shrinks the variable's translation footprint to
  /// nothing (so other variables' entries survive instead of being
  /// thrashed).
  bool walk_caches(CoreId core, Addr addr, bool is_store, AccessResult& r,
                   bool skip_tlb);
  /// Consults (and trains) `core`'s stream prefetcher for a DRAM fill of
  /// `addr`. Config-gated; called once per fill, in issue order.
  bool consult_prefetcher(CoreId core, Addr addr);
  /// The DRAM leg: pays the home controller at `now`, applies the
  /// latency formula for `prefetched`, sets level + telemetry. `ov` (may
  /// be null) is the what-if override covering this address, applied
  /// before any cost is charged.
  void finish_dram(Addr addr, NodeId home, NodeId toucher, bool prefetched,
                   Cycles now, AccessResult& r, const OverrideEntry* ov);
  /// Binds the page of `addr` honouring a placement override's forced
  /// interleaving; plain first-touch semantics when `ov` is null.
  NodeId touch_page(Addr addr, NodeId toucher, const OverrideEntry* ov);

  MachineConfig cfg_;
  std::vector<SetAssocCache> l1_;   // per core
  std::vector<SetAssocCache> l2_;   // per core
  std::vector<SetAssocCache> l3_;   // per socket
  std::vector<Tlb> tlbs_;           // per core
  std::vector<StreamPrefetcher> prefetchers_;  // per core
  std::vector<DramController> controllers_;  // per NUMA node
  PageTable page_table_;
  OverrideMap overrides_;

  // Registry-backed level counts (this instance's private cells; the
  // global registry additionally sums them machine-wide).
  struct Telemetry {
    obs::Counter l1, l2, l3, local_dram, remote_dram, tlb_misses, prefetched;
  };
  Telemetry tm_;
};

}  // namespace dcprof::sim
