#include "sim/machine.h"

namespace dcprof::sim {

Machine::Machine(const MachineConfig& cfg) : cfg_(cfg), memory_(cfg) {}

AccessResult Machine::access(ThreadId tid, CoreId core, Addr ip, Addr addr,
                             std::uint32_t size, bool is_store,
                             Cycles& clock) {
  ++instructions_;
  ++mem_accesses_;
  const AccessResult result = memory_.access(core, addr, is_store, clock);
  const Cycles at = clock;
  clock += result.latency;
  if (observer_ != nullptr) {
    observer_->on_access(MemAccess{tid, core, ip, addr, size, is_store,
                                   result, at});
  }
  return result;
}

void Machine::compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                      Addr ip, Cycles& clock) {
  instructions_ += instrs;
  clock += instrs;
  if (observer_ != nullptr) {
    observer_->on_compute(tid, core, instrs, ip, clock);
  }
}

}  // namespace dcprof::sim
