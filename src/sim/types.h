// Basic vocabulary types for the simulated machine.
#pragma once

#include <cstdint>
#include <string>

namespace dcprof::sim {

/// Virtual address in the simulated address space.
using Addr = std::uint64_t;
/// Simulated time, in core clock cycles.
using Cycles = std::uint64_t;
/// Virtual thread id (dense, per process/rank).
using ThreadId = std::int32_t;
/// Core id (dense across the whole machine).
using CoreId = std::int32_t;
/// NUMA domain id.
using NodeId = std::int32_t;

inline constexpr NodeId kNoNode = -1;

/// Level of the memory hierarchy that satisfied an access.
enum class MemLevel : std::uint8_t {
  kL1,
  kL2,
  kL3,
  kLocalDram,
  kRemoteDram,
};

/// Human-readable name, e.g. for reports ("L1", "RemoteDram", ...).
const char* to_string(MemLevel level);

/// Outcome of one memory access as resolved by the memory system.
struct AccessResult {
  Cycles latency = 0;      ///< total observed latency, incl. queueing
  MemLevel level = MemLevel::kL1;
  bool tlb_miss = false;
  bool prefetched = false; ///< DRAM fill hidden by the stream prefetcher
  NodeId home = kNoNode;   ///< NUMA node owning the page (DRAM fills only)
  Cycles queue_wait = 0;   ///< portion of latency spent waiting on a DRAM controller
};

/// One fully-resolved memory access, as seen by observers (the PMU).
struct MemAccess {
  ThreadId tid = 0;
  CoreId core = 0;
  Addr ip = 0;             ///< precise instruction pointer of the access
  Addr addr = 0;           ///< effective (virtual) data address
  std::uint32_t size = 0;  ///< bytes accessed
  bool is_store = false;
  AccessResult result;
  Cycles at = 0;           ///< thread-local clock when the access issued
};

}  // namespace dcprof::sim
