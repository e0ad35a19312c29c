// The simulated machine: ties memory system + address space together and
// publishes every executed instruction / memory access to an observer
// (the PMU attaches here).
//
// Concurrency contract: one host thread drives a Machine. Its results
// (shared L3 content, DRAM controller queues, first-touch page homes)
// depend on access order, and rt::Team issues every access in one
// deterministic order on the calling thread, so nothing here is
// synchronized. Host parallelism comes from running independent
// machines: rt::Cluster gives each rank its own Machine and host thread.
#pragma once

#include <cstdint>

#include "sim/address_space.h"
#include "sim/config.h"
#include "sim/memory_system.h"
#include "sim/types.h"

namespace dcprof::sim {

/// Hook the PMU implements. The machine is observer-agnostic so `sim`
/// stays independent of `pmu`.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// Called after each memory access has been resolved.
  virtual void on_access(const MemAccess& access) = 0;
  /// Called for non-memory work (`instrs` retired instructions). `ip`
  /// identifies the code region (representative instruction pointer).
  virtual void on_compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                          Addr ip, Cycles now) = 0;
};

class Machine {
 public:
  explicit Machine(const MachineConfig& cfg);

  const MachineConfig& config() const { return cfg_; }
  MemorySystem& memory() { return memory_; }
  const MemorySystem& memory() const { return memory_; }
  AddressSpace& aspace() { return aspace_; }
  const AddressSpace& aspace() const { return aspace_; }

  /// What-if placement/latency override table (sim/override.h): the
  /// causal advisor patches a variable's page ranges here before a
  /// re-run. Mutate only at quiescent points (no construct in flight).
  OverrideMap& overrides() { return memory_.overrides(); }
  const OverrideMap& overrides() const { return memory_.overrides(); }

  /// At most one observer (the PMU set); null detaches. Attach/detach at
  /// quiescent points only (no constructs in flight).
  void set_observer(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* observer() const { return observer_; }

  /// Issues one memory access on `core` at instruction `ip`, advancing
  /// the caller's thread clock by the observed latency.
  AccessResult access(ThreadId tid, CoreId core, Addr ip, Addr addr,
                      std::uint32_t size, bool is_store, Cycles& clock);

  /// Retires `instrs` non-memory instructions (1 cycle each) attributed
  /// to code at `ip`.
  void compute(ThreadId tid, CoreId core, std::uint64_t instrs, Addr ip,
               Cycles& clock);

  /// Total retired instructions / memory accesses.
  std::uint64_t instructions_retired() const { return instructions_; }
  std::uint64_t memory_accesses() const { return mem_accesses_; }

 private:
  MachineConfig cfg_;
  MemorySystem memory_;
  AddressSpace aspace_;
  AccessObserver* observer_ = nullptr;
  std::uint64_t instructions_ = 0;
  std::uint64_t mem_accesses_ = 0;
};

}  // namespace dcprof::sim
