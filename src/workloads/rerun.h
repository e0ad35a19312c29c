// Re-run driver for the causal what-if engine: builds WhatIfRunner
// callbacks that re-execute a case-study workload with a spec's
// placement/latency overrides patched into the simulated machine, and
// the OverrideInstaller that turns a spec's variable selectors into
// sim::OverrideMap page ranges (heap blocks via allocation hooks, static
// segments via sim::AddressSpace::find_static).
#pragma once

#include <cstdint>
#include <string>

#include "analysis/whatif.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

namespace dcprof::wl {

/// Attaches a what-if spec to one process for the duration of a re-run.
///
/// Construct *before* the workload object: heap targets are matched as
/// allocations happen (some workloads allocate in their constructor),
/// using the same identifying-IP rule the variable view uses to name
/// heap variables — the allocation instruction if annotated, else the
/// innermost annotated frame, else the direct caller. Call
/// resolve_statics() after construction (static arrays register their
/// segments then). What-if re-runs are unprofiled, so the allocator's
/// hook slot is free; installing over an enabled profiler throws.
class OverrideInstaller {
 public:
  OverrideInstaller(ProcessCtx& proc, const analysis::WhatIfSpec& spec);

  /// Resolves the spec's static targets against the address space and
  /// patches their page ranges. Idempotent per target.
  void resolve_statics();

  /// Pages patched so far (heap + static). 0 means no target attached.
  std::uint64_t pages_patched() const { return pages_patched_; }

 private:
  void on_alloc(rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size,
                sim::Addr ip);
  void on_free(sim::Addr base, std::uint64_t size);
  void add_range(sim::Addr base, std::uint64_t size, sim::OverrideEntry e);

  ProcessCtx* proc_;
  struct HeapTarget {
    sim::Addr ip = 0;
    sim::OverrideEntry entry;
  };
  struct StaticTarget {
    std::string name;
    sim::OverrideEntry entry;
    bool resolved = false;
  };
  std::vector<HeapTarget> heap_;
  std::vector<StaticTarget> statics_;
  /// Blocks we patched, so frees drop exactly those ranges.
  std::map<sim::Addr, std::uint64_t> patched_blocks_;
  std::uint64_t pages_patched_ = 0;
};

struct WhatIfRunConfig {
  int threads = 16;        ///< ignored by the sweep3d (per-rank) runner
};

/// Parameterized runners (used by the validation bench and tests).
analysis::WhatIfRunner make_amg_whatif_runner(AmgParams prm,
                                              WhatIfRunConfig cfg = {});
analysis::WhatIfRunner make_lulesh_whatif_runner(LuleshParams prm,
                                                 WhatIfRunConfig cfg = {});
analysis::WhatIfRunner make_streamcluster_whatif_runner(
    StreamclusterParams prm, WhatIfRunConfig cfg = {});
analysis::WhatIfRunner make_nw_whatif_runner(NwParams prm,
                                             WhatIfRunConfig cfg = {});
/// Sweep3D re-runs the full MPI job: one rank_config machine per rank,
/// overrides installed in every rank's process; cycles = max over ranks.
analysis::WhatIfRunner make_sweep3d_whatif_runner(Sweep3dParams prm);

/// True when `workload` names a re-runnable case study.
bool whatif_workload_known(const std::string& workload);
/// "amg|lulesh|streamcluster|nw|sweep3d", for CLI help.
const char* whatif_workload_names();

/// Standard runner for `workload` with dcprof_measure's default
/// parameters (the profile being analyzed must come from the same
/// configuration for the prediction to be exact).
analysis::WhatIfRunner make_whatif_runner(const std::string& workload,
                                          WhatIfRunConfig cfg = {});

}  // namespace dcprof::wl
