// Software performance-monitoring unit: instruction-based sampling (the
// AMD IBS analog) and marked-event sampling (the POWER7 SIAR/SDAR analog).
// Attaches to the simulated machine as its AccessObserver and delivers
// samples — precise IP, effective address, latency, data source — to a
// handler, exactly the tuple the paper's hardware provides.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/types.h"

namespace dcprof::pmu {

/// The sampling events the paper uses (and close relatives).
enum class EventKind : std::uint8_t {
  kIbsOp,                ///< sample every Nth retired op (AMD IBS)
  kMarkedDataFromRMem,   ///< PM_MRK_DATA_FROM_RMEM: remote-DRAM fills
  kMarkedDataFromLMem,   ///< PM_MRK_DATA_FROM_LMEM: local-DRAM fills
  kMarkedDataFromL3,     ///< PM_MRK_DATA_FROM_L3: L3 fills
  kMarkedTlbMiss,        ///< marked TLB misses
};

const char* to_string(EventKind kind);

/// One PMU sample. `precise_ip` is what IBS/SIAR report; `signal_ip` is
/// where the overflow signal lands after out-of-order skid (profilers
/// that unwind from the signal context naively attribute there).
struct Sample {
  sim::ThreadId tid = 0;
  sim::CoreId core = 0;
  sim::Addr precise_ip = 0;
  sim::Addr signal_ip = 0;
  bool is_memory = false;
  sim::Addr eaddr = 0;            ///< effective data address (SDAR)
  std::uint32_t size = 0;
  bool is_store = false;
  sim::Cycles latency = 0;
  sim::MemLevel source = sim::MemLevel::kL1;
  bool tlb_miss = false;
  EventKind event = EventKind::kIbsOp;
  sim::Cycles at = 0;
};

using SampleHandler = std::function<void(const Sample&)>;

/// One sampling configuration: which event, and the period between samples.
struct PmuConfig {
  EventKind event = EventKind::kIbsOp;
  std::uint64_t period = 4096;
  /// Instructions of skid applied to signal_ip (0 = no skid).
  std::uint64_t skid_instrs = 2;
  /// Randomization range applied to each period (+/- jitter), mirroring
  /// IBS's counter randomization; prevents the sample stream aliasing
  /// with loop structure. 0 = strictly periodic.
  std::uint64_t jitter = 0;
};

/// The machine-wide set of per-core PMUs. Each core has an independent
/// countdown per configured event, mirroring per-core PMU hardware.
///
/// Skip-ahead: like IBS hardware, which counts retired ops for free and
/// interrupts only on the sampled one, a set of IBS configs grants the
/// machine a quiet budget of one op less than the nearest countdown, so
/// only the op that can take a sample is delivered; the rest arrive in
/// bulk through on_quiet. Marked events count only matching accesses,
/// so a set with any marked config grants no budget and sees every op.
class PmuSet : public sim::AccessObserver {
 public:
  PmuSet(const sim::MachineConfig& machine_cfg, std::vector<PmuConfig> cfgs);

  void set_handler(SampleHandler handler) { handler_ = std::move(handler); }

  // sim::AccessObserver:
  void on_access(const sim::MemAccess& access) override;
  void on_compute(sim::ThreadId tid, sim::CoreId core, std::uint64_t instrs,
                  sim::Addr ip, sim::Cycles now) override;
  std::uint64_t quiet_budget(sim::CoreId core) override;
  void on_quiet(sim::CoreId core, std::uint64_t ops) override;

  /// Exact once the machine has reported its quiet ops: after every
  /// rt::Team construct, and after detaching from the machine.
  std::uint64_t samples_taken() const { return samples_.value(); }
  std::uint64_t events_counted(std::size_t cfg_index) const;
  const std::vector<PmuConfig>& configs() const { return configs_; }

 private:
  bool event_matches(const PmuConfig& cfg, const sim::MemAccess& a) const;
  void emit(const PmuConfig& cfg, const Sample& sample);
  /// Next countdown value for (cfg, core): period +/- jitter from a
  /// deterministic per-core generator.
  std::uint64_t next_period(std::size_t cfg_index, sim::CoreId core);

  std::vector<PmuConfig> configs_;
  std::size_t cores_ = 0;
  // Flattened [cfg * cores_ + core] — one indirection on the hot path.
  std::vector<std::uint64_t> countdown_;
  std::vector<std::uint64_t> rng_state_;
  // Registry-backed (`pmu.events{event=...}` per cfg, `pmu.samples`).
  // Each cfg owns its own cell, so events_counted(i) stays per-cfg even
  // when two cfgs sample the same event kind.
  std::vector<obs::Counter> event_counts_;  // per cfg
  SampleHandler handler_;
  bool ibs_only_ = true;  ///< no marked config: skip-ahead applies
  obs::Counter samples_;
};

}  // namespace dcprof::pmu
