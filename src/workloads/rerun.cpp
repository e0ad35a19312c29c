#include "workloads/rerun.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "obs/registry.h"
#include "obs/tracer.h"

namespace dcprof::wl {

using analysis::WhatIfBatchRunner;
using analysis::WhatIfRun;
using analysis::WhatIfRunner;
using analysis::WhatIfSpec;

namespace {

/// `into` with `e`'s non-none fields laid over it (one variable may carry
/// both a placement and a latency patch in a composite spec).
void merge_entry(sim::OverrideEntry& into, const sim::OverrideEntry& e) {
  if (e.placement != sim::PlacementOverride::kNone) {
    into.placement = e.placement;
  }
  if (e.latency != sim::LatencyOverride::kNone) into.latency = e.latency;
}

/// What a variant timing `spec` must own.
sim::VariantOwnership ownership(const WhatIfSpec& spec) {
  sim::VariantOwnership own;
  for (const analysis::WhatIfAction& a : spec.actions) {
    const sim::OverrideEntry e = analysis::override_for(a.fix);
    own.tlb |= e.latency != sim::LatencyOverride::kNone;
    own.page_table |= e.placement == sim::PlacementOverride::kInterleave;
  }
  return own;
}

}  // namespace

OverrideInstaller::OverrideInstaller(ProcessCtx& proc,
                                     const std::vector<WhatIfSpec>& specs,
                                     Timing timing)
    : proc_(&proc) {
  if (proc.profiler() != nullptr) {
    throw std::logic_error(
        "OverrideInstaller: what-if re-runs are unprofiled (the profiler "
        "owns the allocation hooks)");
  }
  if (timing == Timing::kMachine && specs.size() != 1) {
    throw std::invalid_argument(
        "OverrideInstaller: the machine itself times exactly one spec");
  }
  bool any_heap = false;
  for (const WhatIfSpec& spec : specs) {
    Targets t;
    // Group the spec's actions per target, merging their entries.
    for (const analysis::WhatIfAction& a : spec.actions) {
      const sim::OverrideEntry e = analysis::override_for(a.fix);
      if (a.target.cls == core::StorageClass::kStatic) {
        auto it = std::find_if(
            t.statics.begin(), t.statics.end(),
            [&](const StaticTarget& s) { return s.name == a.target.name; });
        if (it == t.statics.end()) {
          t.statics.push_back(StaticTarget{a.target.name, e, false});
        } else {
          merge_entry(it->entry, e);
        }
      } else {
        auto it = std::find_if(
            t.heap.begin(), t.heap.end(),
            [&](const HeapTarget& h) { return h.ip == a.target.alloc_ip; });
        if (it == t.heap.end()) {
          t.heap.push_back(HeapTarget{a.target.alloc_ip, e});
        } else {
          merge_entry(it->entry, e);
        }
      }
    }
    if (timing == Timing::kVariants && !spec.actions.empty()) {
      const sim::VariantOwnership own = ownership(spec);
      t.variant = proc.machine().memory().add_variant(proc.team().size(), own);
      owning_tlbs_ += own.tlb ? 1 : 0;
      owning_page_tables_ += own.page_table ? 1 : 0;
    }
    any_heap |= !t.heap.empty();
    specs_.push_back(std::move(t));
  }
  if (any_heap) {
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

void OverrideInstaller::add_range(Targets& t, sim::Addr base,
                                  std::uint64_t size, sim::OverrideEntry e) {
  proc_->machine().memory().add_override(t.variant, base, size, e);
  const std::uint64_t pb = proc_->machine().config().page_bytes;
  t.pages_patched += (base + size - 1) / pb - base / pb + 1;
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
  for (Targets& t : specs_) {
    for (const HeapTarget& h : t.heap) {
      if (h.ip != id_ip) continue;
      add_range(t, base, size, h.entry);
      t.patched_blocks[base] = size;
      break;
    }
  }
}

void OverrideInstaller::on_free(sim::Addr base, std::uint64_t size) {
  for (Targets& t : specs_) {
    const auto it = t.patched_blocks.find(base);
    if (it == t.patched_blocks.end()) continue;
    // The heap reuses freed ranges; the patch must not leak onto the
    // range's next tenant.
    proc_->machine().memory().remove_override(t.variant, base, size);
    t.patched_blocks.erase(it);
  }
}

void OverrideInstaller::resolve_statics() {
  for (Targets& t : specs_) {
    for (StaticTarget& s : t.statics) {
      if (s.resolved) continue;
      const auto seg = proc_->machine().aspace().find_static(s.name);
      if (!seg) continue;
      add_range(t, seg->first, seg->second, s.entry);
      s.resolved = true;
    }
  }
}

namespace {

/// One simulation answered `specs` specs (registry counters
/// whatif.simulations and whatif.specs).
void count_simulation(std::size_t specs) {
  obs::Registry& reg = obs::Registry::global();
  reg.counter("whatif.simulations").inc();
  reg.counter("whatif.specs").add(specs);
}

/// One execution of a threaded case study answering `specs`, timed as
/// `timing` says.
template <typename Workload, typename Params>
std::vector<WhatIfRun> simulate(const char* exe, const Params& prm,
                                int threads,
                                const std::vector<WhatIfSpec>& specs,
                                OverrideInstaller::Timing timing) {
  ProcessCtx proc(node_config(), threads, exe);
  OverrideInstaller inst(proc, specs, timing);
  // The batch's span carries what its variants own (pipeline.cpp records
  // its stage spans the same way).
  const bool traced = timing == OverrideInstaller::Timing::kVariants &&
                      obs::Tracer::enabled();
  const std::uint64_t t0 = traced ? obs::Tracer::global().now_ns() : 0;
  Workload w(proc, prm);
  inst.resolve_statics();
  const RunResult r = w.run();
  std::vector<WhatIfRun> runs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    WhatIfRun run;
    run.cycles = proc.team().now(inst.variant(i));
    run.checksum = r.checksum;
    run.pages_patched = inst.pages_patched(i);
    runs.push_back(run);
  }
  if (traced) {
    obs::Tracer& tr = obs::Tracer::global();
    tr.record_complete(
        "whatif.batch", t0, tr.now_ns() - t0,
        obs::TraceArgs{
            obs::TraceArg{"specs", specs.size()},
            obs::TraceArg{"variants_own_tlb",
                          static_cast<std::uint64_t>(
                              inst.variants_owning_tlbs())},
            obs::TraceArg{"variants_own_page_table",
                          static_cast<std::uint64_t>(
                              inst.variants_owning_page_tables())},
            obs::TraceArg{"variant_tlb_steps",
                          proc.machine().memory().variant_tlb_steps()}});
  }
  count_simulation(specs.size());
  return runs;
}

template <typename Workload, typename Params>
WhatIfRunner per_spec(const char* exe, Params prm, WhatIfRunConfig cfg) {
  return [exe, prm, cfg](const WhatIfSpec& spec) {
    return simulate<Workload>(exe, prm, cfg.threads, {spec},
                              OverrideInstaller::Timing::kMachine)
        .front();
  };
}

template <typename Workload, typename Params>
WhatIfBatchRunner batched(const char* exe, Params prm, WhatIfRunConfig cfg) {
  return [exe, prm, cfg](const std::vector<WhatIfSpec>& specs) {
    // A machine gives at most Tlb::kMaxViews variants a TLB, so specs
    // past that many TLB owners go to the next simulation.
    std::vector<WhatIfRun> runs;
    std::vector<WhatIfSpec> part;
    unsigned tlb_owners = 0;
    const auto run_part = [&] {
      for (const WhatIfRun& run :
           simulate<Workload>(exe, prm, cfg.threads, part,
                              OverrideInstaller::Timing::kVariants)) {
        runs.push_back(run);
      }
      part.clear();
      tlb_owners = 0;
    };
    for (const WhatIfSpec& spec : specs) {
      const bool owns_tlb = ownership(spec).tlb;
      if (owns_tlb && tlb_owners == sim::Tlb::kMaxViews) run_part();
      tlb_owners += owns_tlb ? 1 : 0;
      part.push_back(spec);
    }
    run_part();
    return runs;
  };
}

}  // namespace

WhatIfRunner make_amg_whatif_runner(AmgParams prm, WhatIfRunConfig cfg) {
  return per_spec<Amg>("amg", prm, cfg);
}
WhatIfRunner make_lulesh_whatif_runner(LuleshParams prm, WhatIfRunConfig cfg) {
  return per_spec<Lulesh>("lulesh", prm, cfg);
}
WhatIfRunner make_streamcluster_whatif_runner(StreamclusterParams prm,
                                              WhatIfRunConfig cfg) {
  return per_spec<Streamcluster>("streamcluster", prm, cfg);
}
WhatIfRunner make_nw_whatif_runner(NwParams prm, WhatIfRunConfig cfg) {
  return per_spec<Nw>("nw", prm, cfg);
}

WhatIfBatchRunner make_amg_whatif_batch_runner(AmgParams prm,
                                               WhatIfRunConfig cfg) {
  return batched<Amg>("amg", prm, cfg);
}
WhatIfBatchRunner make_lulesh_whatif_batch_runner(LuleshParams prm,
                                                  WhatIfRunConfig cfg) {
  return batched<Lulesh>("lulesh", prm, cfg);
}
WhatIfBatchRunner make_streamcluster_whatif_batch_runner(
    StreamclusterParams prm, WhatIfRunConfig cfg) {
  return batched<Streamcluster>("streamcluster", prm, cfg);
}
WhatIfBatchRunner make_nw_whatif_batch_runner(NwParams prm,
                                              WhatIfRunConfig cfg) {
  return batched<Nw>("nw", prm, cfg);
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
      OverrideInstaller inst(proc, {spec},
                             OverrideInstaller::Timing::kMachine);
      Sweep3dRank w(proc, prm, &rank);
      inst.resolve_statics();
      const RunResult r = w.run();
      const auto id = static_cast<std::size_t>(rank.id());
      checksums[id] = r.checksum;
      cycles[id] = r.sim_cycles;
      pages[id] = inst.pages_patched(0);
    });
    WhatIfRun out;
    for (const auto c : cycles) out.cycles = std::max(out.cycles, c);
    for (const auto c : checksums) out.checksum += c;
    for (const auto p : pages) out.pages_patched += p;
    count_simulation(1);
    return out;
  };
}

WhatIfBatchRunner make_sweep3d_whatif_batch_runner(Sweep3dParams prm) {
  return [one = make_sweep3d_whatif_runner(prm)](
             const std::vector<WhatIfSpec>& specs) {
    std::vector<WhatIfRun> runs;
    for (const WhatIfSpec& spec : specs) runs.push_back(one(spec));
    return runs;
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

WhatIfBatchRunner make_whatif_batch_runner(const std::string& workload,
                                           WhatIfRunConfig cfg) {
  if (workload == "amg") return make_amg_whatif_batch_runner(AmgParams{}, cfg);
  if (workload == "lulesh") {
    return make_lulesh_whatif_batch_runner(LuleshParams{}, cfg);
  }
  if (workload == "streamcluster") {
    return make_streamcluster_whatif_batch_runner(StreamclusterParams{}, cfg);
  }
  if (workload == "nw") return make_nw_whatif_batch_runner(NwParams{}, cfg);
  if (workload == "sweep3d") {
    return make_sweep3d_whatif_batch_runner(Sweep3dParams{});
  }
  throw std::invalid_argument("unknown what-if workload: " + workload +
                              " (expected " + whatif_workload_names() + ")");
}

}  // namespace dcprof::wl
