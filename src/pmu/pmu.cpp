#include "pmu/pmu.h"

#include <algorithm>
#include <stdexcept>

namespace dcprof::pmu {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kIbsOp: return "IBS_OP";
    case EventKind::kMarkedDataFromRMem: return "PM_MRK_DATA_FROM_RMEM";
    case EventKind::kMarkedDataFromLMem: return "PM_MRK_DATA_FROM_LMEM";
    case EventKind::kMarkedDataFromL3: return "PM_MRK_DATA_FROM_L3";
    case EventKind::kMarkedTlbMiss: return "PM_MRK_TLB_MISS";
  }
  return "?";
}

PmuSet::PmuSet(const sim::MachineConfig& machine_cfg,
               std::vector<PmuConfig> cfgs)
    : configs_(std::move(cfgs)) {
  cores_ = static_cast<std::size_t>(machine_cfg.num_cores());
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const auto& cfg = configs_[i];
    if (cfg.period == 0) throw std::invalid_argument("PMU period must be > 0");
    if (cfg.jitter >= cfg.period) {
      throw std::invalid_argument("PMU jitter must be < period");
    }
    if (cfg.event != EventKind::kIbsOp) ibs_only_ = false;
    for (std::size_t c = 0; c < cores_; ++c) {
      countdown_.push_back(cfg.period);
      rng_state_.push_back(0x9e3779b97f4a7c15ull * (c + 1) +
                           0x7f4a7c15ull * i);
    }
  }
  obs::Registry& reg = obs::Registry::global();
  samples_ = reg.counter("pmu.samples");
  for (const auto& cfg : configs_) {
    event_counts_.push_back(
        reg.counter("pmu.events", {{"event", to_string(cfg.event)}}));
  }
}

std::uint64_t PmuSet::events_counted(std::size_t cfg_index) const {
  return event_counts_.at(cfg_index).value();
}

bool PmuSet::event_matches(const PmuConfig& cfg,
                           const sim::MemAccess& a) const {
  switch (cfg.event) {
    case EventKind::kIbsOp:
      return true;  // every retired op counts
    case EventKind::kMarkedDataFromRMem:
      return a.result.level == sim::MemLevel::kRemoteDram;
    case EventKind::kMarkedDataFromLMem:
      return a.result.level == sim::MemLevel::kLocalDram;
    case EventKind::kMarkedDataFromL3:
      return a.result.level == sim::MemLevel::kL3;
    case EventKind::kMarkedTlbMiss:
      return a.result.tlb_miss;
  }
  return false;
}

void PmuSet::emit(const PmuConfig& cfg, const Sample& sample) {
  samples_.inc();
  (void)cfg;
  if (handler_) handler_(sample);
}

std::uint64_t PmuSet::next_period(std::size_t cfg_index, sim::CoreId core) {
  const PmuConfig& cfg = configs_[cfg_index];
  if (cfg.jitter == 0) return cfg.period;
  // xorshift64*: deterministic, per-core stream.
  auto& s = rng_state_[cfg_index * cores_ + static_cast<std::size_t>(core)];
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  const std::uint64_t r = s * 0x2545f4914f6cdd1dull;
  return cfg.period - cfg.jitter + r % (2 * cfg.jitter + 1);
}

void PmuSet::on_access(const sim::MemAccess& a) {
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const PmuConfig& cfg = configs_[i];
    if (!event_matches(cfg, a)) continue;
    event_counts_[i].inc();
    auto& cd = countdown_[i * cores_ + static_cast<std::size_t>(a.core)];
    if (--cd > 0) continue;
    cd = next_period(i, a.core);
    Sample s;
    s.tid = a.tid;
    s.core = a.core;
    s.precise_ip = a.ip;
    s.signal_ip = a.ip + cfg.skid_instrs * 4;  // out-of-order skid
    s.is_memory = true;
    s.eaddr = a.addr;
    s.size = a.size;
    s.is_store = a.is_store;
    s.latency = a.result.latency;
    s.source = a.result.level;
    s.tlb_miss = a.result.tlb_miss;
    s.event = cfg.event;
    s.at = a.at;
    emit(cfg, s);
  }
}

void PmuSet::on_compute(sim::ThreadId tid, sim::CoreId core,
                        std::uint64_t instrs, sim::Addr ip, sim::Cycles now) {
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    const PmuConfig& cfg = configs_[i];
    if (cfg.event != EventKind::kIbsOp) continue;  // only IBS counts ops
    event_counts_[i].add(instrs);
    auto& cd = countdown_[i * cores_ + static_cast<std::size_t>(core)];
    std::uint64_t remaining = instrs;
    while (remaining >= cd) {
      remaining -= cd;
      cd = next_period(i, core);
      Sample s;
      s.tid = tid;
      s.core = core;
      s.precise_ip = ip;
      s.signal_ip = ip + cfg.skid_instrs * 4;
      s.is_memory = false;
      s.event = cfg.event;
      s.at = now;
      emit(cfg, s);
    }
    cd -= remaining;
  }
}

std::uint64_t PmuSet::quiet_budget(sim::CoreId core) {
  if (!ibs_only_) return 0;
  // Every countdown stays >= 1 through the quiet ops, so none of them
  // could have taken a sample (or drawn jitter): the next delivered op
  // is the one that does.
  std::uint64_t budget = ~std::uint64_t{0};
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    budget = std::min(
        budget, countdown_[i * cores_ + static_cast<std::size_t>(core)] - 1);
  }
  return budget;
}

void PmuSet::on_quiet(sim::CoreId core, std::uint64_t ops) {
  // Only granted when every config is IBS, which counts every op.
  for (std::size_t i = 0; i < configs_.size(); ++i) {
    event_counts_[i].add(ops);
    countdown_[i * cores_ + static_cast<std::size_t>(core)] -= ops;
  }
}

}  // namespace dcprof::pmu
