// Configuration of the simulated multi-socket NUMA machine.
#pragma once

#include <cstddef>

#include "sim/types.h"

namespace dcprof::sim {

/// Geometry of one set-associative cache.
struct CacheConfig {
  std::size_t size_bytes = 32 * 1024;
  unsigned associativity = 8;
  unsigned line_bytes = 64;
};

/// Access latencies (cycles) for each level, plus DRAM controller occupancy.
struct LatencyConfig {
  Cycles l1 = 4;
  /// Stores that hit L1 retire through the store buffer without
  /// stalling the pipeline.
  Cycles store_hit = 1;
  Cycles l2 = 12;
  Cycles l3 = 40;
  Cycles dram = 120;          ///< row access once the controller picks it up
  Cycles remote_extra = 110;  ///< added interconnect hop cost for remote DRAM
  Cycles tlb_walk = 30;       ///< page-walk penalty on a TLB miss
  Cycles dram_service = 64;   ///< bank occupancy per DRAM access
  unsigned dram_banks = 2;    ///< parallel banks per controller
  /// Latency observed when a hardware stream prefetcher hid (most of)
  /// a DRAM fill. Strided access defeats the prefetcher — the effect
  /// the paper's Sweep3D study hinges on.
  Cycles prefetch_hit = 40;
  /// Residual interconnect cost of a prefetched *remote* fill (a deep
  /// prefetcher hides most of the hop; bandwidth is paid via the
  /// controller queue).
  Cycles prefetch_remote_extra = 8;
  /// Disables the stream prefetchers entirely (model ablation).
  bool prefetch_enabled = true;
};

/// Whole-machine geometry. Defaults resemble the paper's 4-socket testbeds.
struct MachineConfig {
  int sockets = 4;
  int cores_per_socket = 4;
  int numa_nodes_per_socket = 1;  ///< Magny-Cours-style split dies use 2

  CacheConfig l1{32 * 1024, 8, 64};
  CacheConfig l2{512 * 1024, 8, 64};
  CacheConfig l3{8 * 1024 * 1024, 16, 64};
  LatencyConfig lat;

  unsigned tlb_entries = 64;
  std::size_t page_bytes = 4096;

  int num_cores() const { return sockets * cores_per_socket; }
  int num_nodes() const { return sockets * numa_nodes_per_socket; }
  int socket_of(CoreId core) const { return core / cores_per_socket; }
  /// NUMA node directly attached to `core`.
  NodeId node_of(CoreId core) const {
    const int within = core % cores_per_socket;
    const int local = within * numa_nodes_per_socket / cores_per_socket;
    return socket_of(core) * numa_nodes_per_socket + local;
  }
};

}  // namespace dcprof::sim
