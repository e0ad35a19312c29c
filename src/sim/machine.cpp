#include "sim/machine.h"

namespace dcprof::sim {

Machine::Machine(const MachineConfig& cfg)
    : cfg_(cfg), memory_(cfg),
      quiet_(static_cast<std::size_t>(cfg.num_cores())) {}

void Machine::set_observer(AccessObserver* observer) {
  sync_observer();
  for (Quiet& q : quiet_) q.budget = 0;
  observer_ = observer;
}

void Machine::sync_observer() {
  if (observer_ == nullptr) return;
  for (std::size_t c = 0; c < quiet_.size(); ++c) {
    report_held(static_cast<CoreId>(c));
  }
}

void Machine::report_held(CoreId core) {
  Quiet& q = quiet_[static_cast<std::size_t>(core)];
  if (q.held == 0) return;
  const std::uint64_t held = q.held;
  q.held = 0;
  observer_->on_quiet(core, held);
}

AccessResult Machine::access_full(ThreadId tid, CoreId core, Addr ip,
                                  Addr addr, std::uint32_t size, bool is_store,
                                  Cycles& clock) {
  ++instructions_;
  const AccessResult result = memory_.access(tid, core, addr, is_store, clock);
  const Cycles at = clock;
  clock += result.latency;
  Quiet& q = quiet_[static_cast<std::size_t>(core)];
  if (q.budget != 0) {
    --q.budget;
    ++q.held;
  } else if (observer_ != nullptr) {
    report_held(core);
    observer_->on_access(
        MemAccess{tid, core, ip, addr, size, is_store, result, at});
    q.budget = observer_->quiet_budget(core);
  }
  return result;
}

void Machine::deliver_compute(ThreadId tid, CoreId core, std::uint64_t instrs,
                              Addr ip, Cycles now) {
  report_held(core);
  observer_->on_compute(tid, core, instrs, ip, now);
  quiet_[static_cast<std::size_t>(core)].budget = observer_->quiet_budget(core);
}

}  // namespace dcprof::sim
