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
#include <vector>

#include "sim/address_space.h"
#include "sim/config.h"
#include "sim/memory_system.h"
#include "sim/types.h"

namespace dcprof::sim {

/// Hook the PMU implements. The machine is observer-agnostic so `sim`
/// stays independent of `pmu`.
///
/// Quiet-op protocol: after each callback on a core the machine asks
/// quiet_budget() how many of that core's following ops the observer
/// does not need to see one by one (an access is one op, a compute
/// block `instrs` ops). The machine retires up to that many ops without
/// a callback and reports them in bulk through on_quiet() — before the
/// next callback on that core, before the observer changes, and at
/// Machine::sync_observer(). The default budget 0 delivers every op.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// Called after each memory access has been resolved.
  virtual void on_access(const MemAccess& access) = 0;
  /// Called for non-memory work (`instrs` retired instructions). `ip`
  /// identifies the code region (representative instruction pointer).
  virtual void on_compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                          Addr ip, Cycles now) = 0;
  /// Ops `core` may retire quietly from now on (asked after each callback).
  virtual std::uint64_t quiet_budget(CoreId core) {
    (void)core;
    return 0;
  }
  /// `ops` ops `core` retired within its quiet budget, since the last
  /// callback or report.
  virtual void on_quiet(CoreId core, std::uint64_t ops) {
    (void)core;
    (void)ops;
  }
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

  /// At most one observer (the PMU set); null detaches. Reports the old
  /// observer's quiet ops first. Attach/detach at quiescent points only
  /// (no constructs in flight).
  void set_observer(AccessObserver* observer);
  AccessObserver* observer() const { return observer_; }

  /// Reports every core's quietly retired ops to the observer, so its
  /// counts are exact. rt::Team calls it at the end of each construct.
  void sync_observer();

  /// Issues one memory access on `core` at instruction `ip`, advancing
  /// the caller's thread clock by the observed latency. A quiet op that
  /// MemorySystem::access_mru resolves completes inline; every other
  /// access takes access_full.
  AccessResult access(ThreadId tid, CoreId core, Addr ip, Addr addr,
                      std::uint32_t size, bool is_store, Cycles& clock) {
    Quiet& q = quiet_[static_cast<std::size_t>(core)];
    AccessResult r;
    if ((q.budget != 0 || observer_ == nullptr) &&
        memory_.access_mru(core, addr, is_store, r)) {
      ++instructions_;
      ++mem_accesses_;
      clock += r.latency;
      if (q.budget != 0) {
        --q.budget;
        ++q.held;
      }
      return r;
    }
    return access_full(tid, core, ip, addr, size, is_store, clock);
  }

  /// Retires `instrs` non-memory instructions (1 cycle each) attributed
  /// to code at `ip`.
  void compute(ThreadId tid, CoreId core, std::uint64_t instrs, Addr ip,
               Cycles& clock) {
    instructions_ += instrs;
    clock += instrs;
    Quiet& q = quiet_[static_cast<std::size_t>(core)];
    if (q.budget != 0 && instrs <= q.budget) {
      q.budget -= instrs;
      q.held += instrs;
    } else if (observer_ != nullptr) {
      deliver_compute(tid, core, instrs, ip, clock);
    }
  }

  /// Total retired instructions / memory accesses.
  std::uint64_t instructions_retired() const { return instructions_; }
  std::uint64_t memory_accesses() const { return mem_accesses_; }

 private:
  /// One core's quiet-op state: ops it may still retire without a
  /// callback, and ops retired so but not yet reported.
  struct Quiet {
    std::uint64_t budget = 0;
    std::uint64_t held = 0;
  };

  /// Every access access() does not complete inline: the full memory
  /// system resolution, then quiet accounting or the observer callback.
  AccessResult access_full(ThreadId tid, CoreId core, Addr ip, Addr addr,
                           std::uint32_t size, bool is_store, Cycles& clock);
  /// The observer callback for a compute block outside the quiet budget.
  void deliver_compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                       Addr ip, Cycles now);
  /// Reports `core`'s held ops (if any) to the observer.
  void report_held(CoreId core);

  MachineConfig cfg_;
  MemorySystem memory_;
  AddressSpace aspace_;
  AccessObserver* observer_ = nullptr;
  std::vector<Quiet> quiet_;  // per core
  std::uint64_t instructions_ = 0;
  std::uint64_t mem_accesses_ = 0;
};

}  // namespace dcprof::sim
