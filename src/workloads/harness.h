// Shared harness for the five case-study workloads: one "process" bundles
// a simulated machine, a load module (the executable's symbol tables), a
// thread team, an allocator, and — when enabled — a PMU plus a
// data-centric profiler, wired exactly like the paper's toolchain.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/merge.h"
#include "analysis/views.h"
#include "binfmt/load_module.h"
#include "binfmt/structure.h"
#include "core/measurement.h"
#include "core/profiler.h"
#include "pmu/pmu.h"
#include "rt/alloc.h"
#include "rt/cluster.h"
#include "rt/team.h"
#include "sim/machine.h"

namespace dcprof::wl {

/// Machine used for the threaded (single-process) case studies: 4 sockets
/// x 4 cores, one NUMA node per socket. Caches are scaled down so the
/// workloads' working sets exceed aggregate L3 at laptop-sized inputs.
sim::MachineConfig node_config();

/// Machine used per MPI rank in the pure-MPI study (one core, one node —
/// an MPI process is always co-located with its memory).
sim::MachineConfig rank_config();

/// One simulated process. Either standalone (owns machine/team/allocator)
/// or attached to a cluster Rank (borrows them).
class ProcessCtx {
 public:
  /// Standalone process.
  ProcessCtx(const sim::MachineConfig& cfg, int threads,
             const std::string& exe_name);
  explicit ProcessCtx(rt::Rank& rank, const std::string& exe_name);
  ~ProcessCtx();

  sim::Machine& machine() { return *machine_; }
  rt::Team& team() { return *team_; }
  rt::Allocator& alloc() { return *alloc_; }
  binfmt::LoadModule& exe() { return *exe_; }
  binfmt::ModuleRegistry& modules() { return modules_; }
  core::Profiler* profiler() {
    return profiler_ ? &*profiler_ : nullptr;
  }
  pmu::PmuSet* pmu() { return pmu_ ? &*pmu_ : nullptr; }

  /// Turns on measurement: attaches a PMU with `pmu_cfgs` and a profiler.
  /// With `tool_attached == false` only the PMU counts (no samples are
  /// consumed, no variables tracked) — the overhead baseline, since real
  /// PMU hardware counts for free whether or not a tool listens.
  void enable_profiling(std::vector<pmu::PmuConfig> pmu_cfgs,
                        core::ProfilerConfig prof_cfg = {},
                        std::int32_t rank_id = 0, bool tool_attached = true);

  /// Ends measurement and returns the raw per-thread profiles.
  std::vector<core::ThreadProfile> take_profiles();

  /// Ends measurement and returns the per-process merged profile.
  core::ThreadProfile merged_profile();

  /// Ends measurement and writes a measurement directory (per-thread
  /// profile files + a structure file); returns the bytes written.
  std::uint64_t write_measurements(const std::string& dir);

  /// Annotates an allocation IP with the source variable name (as the
  /// paper's GUI annotates allocation call sites).
  void annotate(sim::Addr alloc_ip, const std::string& var_name) {
    alloc_names_[alloc_ip] = var_name;
  }
  const std::map<sim::Addr, std::string>& alloc_names() const {
    return alloc_names_;
  }
  analysis::AnalysisContext actx() const {
    return analysis::AnalysisContext{&modules_, &alloc_names_};
  }

 private:
  // Owned when standalone, null when rank-attached.
  std::unique_ptr<sim::Machine> owned_machine_;
  std::unique_ptr<rt::Team> owned_team_;
  std::unique_ptr<rt::Allocator> owned_alloc_;

  sim::Machine* machine_;
  rt::Team* team_;
  rt::Allocator* alloc_;

  binfmt::ModuleRegistry modules_;
  std::unique_ptr<binfmt::LoadModule> exe_;
  std::optional<pmu::PmuSet> pmu_;
  std::optional<core::Profiler> profiler_;
  std::map<sim::Addr, std::string> alloc_names_;
};

/// Result of one workload execution.
struct RunResult {
  sim::Cycles sim_cycles = 0;     ///< simulated wall time
  double wall_seconds = 0;        ///< host wall-clock (for overhead)
  double checksum = 0;            ///< verification value
  std::vector<std::pair<std::string, sim::Cycles>> phases;

  sim::Cycles phase(const std::string& name) const;
};

/// Convenience: PMU config lists used by the case studies.
std::vector<pmu::PmuConfig> ibs_config(std::uint64_t period = 1024);
std::vector<pmu::PmuConfig> rmem_config(std::uint64_t period = 64);

}  // namespace dcprof::wl
