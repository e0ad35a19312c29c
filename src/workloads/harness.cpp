#include "workloads/harness.h"

#include <stdexcept>

namespace dcprof::wl {

sim::MachineConfig node_config() {
  sim::MachineConfig cfg;
  cfg.sockets = 4;
  cfg.cores_per_socket = 4;
  cfg.numa_nodes_per_socket = 1;
  cfg.l1 = sim::CacheConfig{16 * 1024, 8, 64};
  cfg.l2 = sim::CacheConfig{128 * 1024, 8, 64};
  cfg.l3 = sim::CacheConfig{2 * 1024 * 1024, 16, 64};
  cfg.tlb_entries = 64;
  return cfg;
}

sim::MachineConfig rank_config() {
  sim::MachineConfig cfg = node_config();
  cfg.sockets = 1;
  cfg.cores_per_socket = 1;
  cfg.l2 = sim::CacheConfig{64 * 1024, 8, 64};
  cfg.l3 = sim::CacheConfig{512 * 1024, 16, 64};
  cfg.tlb_entries = 32;
  return cfg;
}

ProcessCtx::ProcessCtx(const sim::MachineConfig& cfg, int threads,
                       const std::string& exe_name) {
  owned_machine_ = std::make_unique<sim::Machine>(cfg);
  owned_team_ = std::make_unique<rt::Team>(*owned_machine_, threads);
  owned_alloc_ = std::make_unique<rt::Allocator>(*owned_machine_);
  machine_ = owned_machine_.get();
  team_ = owned_team_.get();
  alloc_ = owned_alloc_.get();
  exe_ = std::make_unique<binfmt::LoadModule>(exe_name, machine_->aspace());
  modules_.load(exe_.get());
}

ProcessCtx::ProcessCtx(rt::Rank& rank, const std::string& exe_name)
    : machine_(&rank.machine()), team_(&rank.team()), alloc_(&rank.alloc()) {
  exe_ = std::make_unique<binfmt::LoadModule>(exe_name, machine_->aspace());
  modules_.load(exe_.get());
}

ProcessCtx::~ProcessCtx() {
  // The machine may be borrowed from a longer-lived Rank; don't leave it
  // pointing at the PMU dying with this process.
  if (pmu_ && machine_->observer() == &*pmu_) machine_->set_observer(nullptr);
}

void ProcessCtx::enable_profiling(std::vector<pmu::PmuConfig> pmu_cfgs,
                                  core::ProfilerConfig prof_cfg,
                                  std::int32_t rank_id, bool tool_attached) {
  pmu_.emplace(machine_->config(), std::move(pmu_cfgs));
  if (tool_attached) {
    profiler_.emplace(modules_, prof_cfg, rank_id);
    profiler_->attach_pmu(*pmu_);
    profiler_->attach_allocator(*alloc_);
    profiler_->register_team(*team_);
  }
  machine_->set_observer(&*pmu_);
}

std::vector<core::ThreadProfile> ProcessCtx::take_profiles() {
  if (!profiler_) throw std::logic_error("profiling was not enabled");
  machine_->set_observer(nullptr);
  return profiler_->take_profiles();
}

std::uint64_t ProcessCtx::write_measurements(const std::string& dir) {
  const auto structure =
      binfmt::StructureData::capture(modules_, alloc_names_);
  return core::write_measurement_dir(dir, take_profiles(), structure);
}

core::ThreadProfile ProcessCtx::merged_profile() {
  auto profiles = take_profiles();
  if (profiles.empty()) {
    return core::ThreadProfile{};
  }
  return analysis::reduce(std::move(profiles));
}

sim::Cycles RunResult::phase(const std::string& name) const {
  for (const auto& [n, c] : phases) {
    if (n == name) return c;
  }
  throw std::out_of_range("no such phase: " + name);
}

std::vector<pmu::PmuConfig> ibs_config(std::uint64_t period) {
  return {pmu::PmuConfig{pmu::EventKind::kIbsOp, period, 2, period / 8}};
}

std::vector<pmu::PmuConfig> rmem_config(std::uint64_t period) {
  return {pmu::PmuConfig{pmu::EventKind::kMarkedDataFromRMem, period, 2,
                         period / 8}};
}

}  // namespace dcprof::wl
