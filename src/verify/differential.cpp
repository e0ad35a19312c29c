#include "verify/differential.h"

#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "analysis/merge.h"
#include "rt/cluster.h"
#include "verify/invariants.h"
#include "verify/oracle.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

namespace dcprof::verify {

using core::ThreadProfile;

namespace {

struct RunOutput {
  std::vector<ThreadProfile> profiles;  // tid/rank order
  std::vector<std::string> bytes;       // serialized, parallel
  double checksum = 0;
};

void serialize_into(RunOutput& out) {
  for (const auto& p : out.profiles) out.bytes.push_back(p.serialize());
}

/// One single-process workload execution. `oracle == false`: the
/// production profiler. `oracle == true`: PMU-only measurement
/// (tool_attached = false) with the reference oracle manually wired to
/// the same PMU, allocator, and team — identical event stream, reference
/// attribution. `make(proc)` constructs the workload (registering its
/// code structure) and returns a run thunk.
template <typename MakeWorkload>
RunOutput run_single(const char* exe, int threads,
                     std::vector<pmu::PmuConfig> pmu_cfgs, bool oracle,
                     MakeWorkload make) {
  wl::ProcessCtx proc(wl::node_config(), threads, exe);
  auto workload = make(proc);
  std::optional<OracleProfiler> ref;
  proc.enable_profiling(std::move(pmu_cfgs), {}, /*rank_id=*/0,
                        /*tool_attached=*/!oracle);
  if (oracle) {
    ref.emplace(proc.modules(), OracleConfig{}, /*rank=*/0);
    ref->attach_pmu(*proc.pmu());
    ref->attach_allocator(proc.alloc());
    ref->register_team(proc.team());
  }
  RunOutput out;
  out.checksum = workload->run().checksum;
  out.profiles = oracle ? ref->take_profiles() : proc.take_profiles();
  serialize_into(out);
  return out;
}

/// The pure-MPI study: one oracle (or profiler) per rank, each wired to
/// its own rank's PMU/allocator/team; profiles collected in rank order.
RunOutput run_sweep3d(const wl::Sweep3dParams& prm,
                      const std::vector<pmu::PmuConfig>& pmu_cfgs,
                      bool oracle) {
  rt::Cluster cluster(prm.ranks, wl::rank_config(), /*threads_per_rank=*/1);
  std::vector<std::vector<ThreadProfile>> per_rank(
      static_cast<std::size_t>(prm.ranks));
  std::mutex mu;
  double checksum = 0;
  cluster.run([&](rt::Rank& rank) {
    wl::ProcessCtx proc(rank, "sweep3d");
    proc.enable_profiling(pmu_cfgs, {}, rank.id(),
                          /*tool_attached=*/!oracle);
    std::optional<OracleProfiler> ref;
    if (oracle) {
      ref.emplace(proc.modules(), OracleConfig{}, rank.id());
      ref->attach_pmu(*proc.pmu());
      ref->attach_allocator(proc.alloc());
      ref->register_team(proc.team());
    }
    wl::Sweep3dRank w(proc, prm, &rank);
    const wl::RunResult r = w.run();
    std::lock_guard lock(mu);
    checksum += r.checksum;
    per_rank[static_cast<std::size_t>(rank.id())] =
        oracle ? ref->take_profiles() : proc.take_profiles();
  });
  RunOutput out;
  out.checksum = checksum;
  for (auto& rank_profiles : per_rank) {
    for (auto& p : rank_profiles) out.profiles.push_back(std::move(p));
  }
  serialize_into(out);
  return out;
}

/// Shared verdict: byte identity, invariants, merge algebra, reduce
/// cross-check.
void judge(const RunOutput& prod, const RunOutput& oracle,
           WorkloadReport& report) {
  report.profiles = prod.profiles.size();
  for (const auto& p : prod.profiles) report.samples += p.total_samples();

  if (prod.checksum != oracle.checksum) {
    report.failures.push_back("workload checksum differs between runs "
                              "(simulation not deterministic)");
  }
  if (prod.bytes.size() != oracle.bytes.size()) {
    report.failures.push_back(
        "profile count differs: production " +
        std::to_string(prod.bytes.size()) + ", oracle " +
        std::to_string(oracle.bytes.size()));
  } else {
    for (std::size_t i = 0; i < prod.bytes.size(); ++i) {
      if (prod.bytes[i] != oracle.bytes[i]) {
        report.failures.push_back(
            "profile " + std::to_string(i) + " (rank " +
            std::to_string(prod.profiles[i].rank) + ", tid " +
            std::to_string(prod.profiles[i].tid) +
            ") not byte-identical to the oracle's");
      }
    }
  }

  for (const auto& p : prod.profiles) {
    const CheckResult check = check_profile(p);
    if (!check.ok()) {
      report.failures.push_back("invariants (tid " + std::to_string(p.tid) +
                                "): " + check.summary());
    }
  }
  if (prod.profiles.size() >= 2) {
    const CheckResult algebra = check_merge_algebra(prod.profiles);
    if (!algebra.ok()) {
      report.failures.push_back("merge algebra: " + algebra.summary());
    }
  }
  if (!prod.profiles.empty()) {
    std::vector<ThreadProfile> copy;
    copy.reserve(prod.bytes.size());
    for (const auto& b : prod.bytes) copy.push_back(ThreadProfile::read(b));
    const ThreadProfile reduced = analysis::reduce(std::move(copy));
    const ThreadProfile oreduced = oracle_reduce(prod.profiles);
    if (reduced.serialize() != oreduced.serialize()) {
      report.failures.push_back("reduce diverges from oracle reduce");
    }
  }
}

}  // namespace

std::string WorkloadReport::summary() const {
  std::string out = name + ": " + std::to_string(profiles) + " profiles, " +
                    std::to_string(samples) + " samples";
  if (!ok()) {
    out += "; FAILED:";
    for (const auto& f : failures) out += " [" + f + "]";
  }
  return out;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "amg", "sweep3d", "lulesh", "streamcluster", "nw"};
  return names;
}

WorkloadReport workload_differential(const std::string& name) {
  WorkloadReport report;
  report.name = name;

  if (name == "amg") {
    wl::AmgParams prm;
    prm.rows = 12'000;
    prm.iters = 2;
    prm.small_allocs = 100;
    prm.workspace_doubles = 20'000;
    prm.symbolic_cycles_per_row = 10;
    const auto run = [&](bool oracle) {
      return run_single("amg", 16, wl::rmem_config(32), oracle,
                        [&](wl::ProcessCtx& proc) {
                          return std::make_unique<wl::Amg>(proc, prm);
                        });
    };
    judge(run(false), run(true), report);
  } else if (name == "sweep3d") {
    wl::Sweep3dParams prm;
    prm.ranks = 4;
    prm.nx = 8;
    prm.ny = 12;
    prm.nz = 12;
    judge(run_sweep3d(prm, wl::ibs_config(256), false),
          run_sweep3d(prm, wl::ibs_config(256), true), report);
  } else if (name == "lulesh") {
    wl::LuleshParams prm;
    prm.nelem = 8'000;
    prm.iters = 2;
    const auto run = [&](bool oracle) {
      return run_single("lulesh", 8, wl::ibs_config(256), oracle,
                        [&](wl::ProcessCtx& proc) {
                          return std::make_unique<wl::Lulesh>(proc, prm);
                        });
    };
    judge(run(false), run(true), report);
  } else if (name == "streamcluster") {
    wl::StreamclusterParams prm;
    prm.npoints = 6'000;
    prm.dim = 8;
    prm.iters = 1;
    const auto run = [&](bool oracle) {
      return run_single("sc", 8, wl::ibs_config(256), oracle,
                        [&](wl::ProcessCtx& proc) {
                          return std::make_unique<wl::Streamcluster>(proc,
                                                                     prm);
                        });
    };
    judge(run(false), run(true), report);
  } else if (name == "nw") {
    wl::NwParams prm;
    prm.n = 400;
    const auto run = [&](bool oracle) {
      return run_single("nw", 8, wl::ibs_config(256), oracle,
                        [&](wl::ProcessCtx& proc) {
                          return std::make_unique<wl::Nw>(proc, prm);
                        });
    };
    judge(run(false), run(true), report);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return report;
}

}  // namespace dcprof::verify
