#include "workloads/rerun.h"

#include <mutex>
#include <stdexcept>
#include <vector>

namespace dcprof::wl {

using analysis::WhatIfRun;
using analysis::WhatIfRunner;
using analysis::WhatIfSpec;

OverrideInstaller::OverrideInstaller(ProcessCtx& proc,
                                     const analysis::WhatIfSpec& spec)
    : proc_(&proc) {
  if (proc.profiler() != nullptr) {
    throw std::logic_error(
        "OverrideInstaller: what-if re-runs are unprofiled (the profiler "
        "owns the allocation hooks)");
  }
  // Group the spec's actions per target, merging entries so one variable
  // can carry both a placement and a latency patch in a composite spec.
  for (const analysis::WhatIfAction& a : spec.actions) {
    const sim::OverrideEntry e = analysis::override_for(a.fix);
    if (a.target.cls == core::StorageClass::kStatic) {
      bool merged = false;
      for (StaticTarget& t : statics_) {
        if (t.name == a.target.name) {
          if (e.placement != sim::PlacementOverride::kNone) {
            t.entry.placement = e.placement;
          }
          if (e.latency != sim::LatencyOverride::kNone) {
            t.entry.latency = e.latency;
          }
          merged = true;
          break;
        }
      }
      if (!merged) statics_.push_back(StaticTarget{a.target.name, e, false});
    } else {
      bool merged = false;
      for (HeapTarget& t : heap_) {
        if (t.ip == a.target.alloc_ip) {
          if (e.placement != sim::PlacementOverride::kNone) {
            t.entry.placement = e.placement;
          }
          if (e.latency != sim::LatencyOverride::kNone) {
            t.entry.latency = e.latency;
          }
          merged = true;
          break;
        }
      }
      if (!merged) heap_.push_back(HeapTarget{a.target.alloc_ip, e});
    }
  }
  if (!heap_.empty()) {
    rt::AllocHooks hooks;
    hooks.on_alloc = [this](rt::ThreadCtx& ctx, sim::Addr base,
                            std::uint64_t size, sim::Addr ip) {
      on_alloc(ctx, base, size, ip);
    };
    hooks.on_free = [this](rt::ThreadCtx&, sim::Addr base,
                           std::uint64_t size) { on_free(base, size); };
    proc.alloc().set_hooks(std::move(hooks));
  }
}

void OverrideInstaller::add_range(sim::Addr base, std::uint64_t size,
                                  sim::OverrideEntry e) {
  proc_->machine().overrides().add_range(base, size, e);
  const std::uint64_t pb = proc_->machine().config().page_bytes;
  pages_patched_ += (base + size - 1) / pb - base / pb + 1;
}

void OverrideInstaller::on_alloc(rt::ThreadCtx& ctx, sim::Addr base,
                                 std::uint64_t size, sim::Addr ip) {
  if (size == 0) return;
  // Identifying IP, mirroring the variable view's heap_var_ip rule.
  const auto& names = proc_->alloc_names();
  sim::Addr id_ip = 0;
  if (names.count(ip) != 0) {
    id_ip = ip;
  } else {
    const auto stack = ctx.call_stack();
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      if (names.count(*it) != 0) {
        id_ip = *it;
        break;
      }
    }
    if (id_ip == 0) id_ip = stack.empty() ? ip : stack.back();
  }
  for (const HeapTarget& t : heap_) {
    if (t.ip != id_ip) continue;
    add_range(base, size, t.entry);
    patched_blocks_[base] = size;
    break;
  }
}

void OverrideInstaller::on_free(sim::Addr base, std::uint64_t size) {
  const auto it = patched_blocks_.find(base);
  if (it == patched_blocks_.end()) return;
  // The heap reuses freed ranges; the patch must not leak onto the
  // range's next tenant.
  proc_->machine().overrides().remove_range(base, size);
  patched_blocks_.erase(it);
}

void OverrideInstaller::resolve_statics() {
  for (StaticTarget& t : statics_) {
    if (t.resolved) continue;
    const auto seg = proc_->machine().aspace().find_static(t.name);
    if (!seg) continue;
    add_range(seg->first, seg->second, t.entry);
    t.resolved = true;
  }
}

namespace {

WhatIfRun to_whatif_run(const RunResult& r, const OverrideInstaller& inst) {
  WhatIfRun out;
  out.cycles = r.sim_cycles;
  out.checksum = r.checksum;
  out.pages_patched = inst.pages_patched();
  return out;
}

}  // namespace

WhatIfRunner make_amg_whatif_runner(AmgParams prm, WhatIfRunConfig cfg) {
  return [prm, cfg](const WhatIfSpec& spec) {
    ProcessCtx proc(node_config(), cfg.threads, "amg");
    OverrideInstaller inst(proc, spec);
    Amg w(proc, prm);
    inst.resolve_statics();
    return to_whatif_run(w.run(), inst);
  };
}

WhatIfRunner make_lulesh_whatif_runner(LuleshParams prm, WhatIfRunConfig cfg) {
  return [prm, cfg](const WhatIfSpec& spec) {
    ProcessCtx proc(node_config(), cfg.threads, "lulesh");
    OverrideInstaller inst(proc, spec);
    Lulesh w(proc, prm);
    inst.resolve_statics();
    return to_whatif_run(w.run(), inst);
  };
}

WhatIfRunner make_streamcluster_whatif_runner(StreamclusterParams prm,
                                              WhatIfRunConfig cfg) {
  return [prm, cfg](const WhatIfSpec& spec) {
    ProcessCtx proc(node_config(), cfg.threads, "streamcluster");
    OverrideInstaller inst(proc, spec);
    Streamcluster w(proc, prm);
    inst.resolve_statics();
    return to_whatif_run(w.run(), inst);
  };
}

WhatIfRunner make_nw_whatif_runner(NwParams prm, WhatIfRunConfig cfg) {
  return [prm, cfg](const WhatIfSpec& spec) {
    ProcessCtx proc(node_config(), cfg.threads, "nw");
    OverrideInstaller inst(proc, spec);
    Nw w(proc, prm);
    inst.resolve_statics();
    return to_whatif_run(w.run(), inst);
  };
}

WhatIfRunner make_sweep3d_whatif_runner(Sweep3dParams prm) {
  return [prm](const WhatIfSpec& spec) {
    rt::Cluster cluster(prm.ranks, rank_config(), /*threads_per_rank=*/1);
    const auto n = static_cast<std::size_t>(prm.ranks);
    std::vector<double> checksums(n, 0);
    std::vector<sim::Cycles> cycles(n, 0);
    std::vector<std::uint64_t> pages(n, 0);
    cluster.run([&](rt::Rank& rank) {
      ProcessCtx proc(rank, "sweep3d");
      OverrideInstaller inst(proc, spec);
      Sweep3dRank w(proc, prm, &rank);
      inst.resolve_statics();
      const RunResult r = w.run();
      const auto id = static_cast<std::size_t>(rank.id());
      checksums[id] = r.checksum;
      cycles[id] = r.sim_cycles;
      pages[id] = inst.pages_patched();
    });
    WhatIfRun out;
    for (const auto c : cycles) out.cycles = std::max(out.cycles, c);
    for (const auto c : checksums) out.checksum += c;
    for (const auto p : pages) out.pages_patched += p;
    return out;
  };
}

bool whatif_workload_known(const std::string& workload) {
  return workload == "amg" || workload == "lulesh" ||
         workload == "streamcluster" || workload == "nw" ||
         workload == "sweep3d";
}

const char* whatif_workload_names() {
  return "amg|lulesh|streamcluster|nw|sweep3d";
}

WhatIfRunner make_whatif_runner(const std::string& workload,
                                WhatIfRunConfig cfg) {
  if (workload == "amg") return make_amg_whatif_runner(AmgParams{}, cfg);
  if (workload == "lulesh") {
    return make_lulesh_whatif_runner(LuleshParams{}, cfg);
  }
  if (workload == "streamcluster") {
    return make_streamcluster_whatif_runner(StreamclusterParams{}, cfg);
  }
  if (workload == "nw") return make_nw_whatif_runner(NwParams{}, cfg);
  if (workload == "sweep3d") {
    return make_sweep3d_whatif_runner(Sweep3dParams{});
  }
  throw std::invalid_argument("unknown what-if workload: " + workload +
                              " (expected " + whatif_workload_names() + ")");
}

}  // namespace dcprof::wl
