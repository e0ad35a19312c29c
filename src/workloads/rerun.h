// Re-run driver for the causal what-if engine: builds the runner
// callbacks that execute a case-study workload with specs' placement/
// latency overrides patched into the simulated machine — per spec into
// the machine itself, or a whole batch at once into per-spec timing
// variants — and the OverrideInstaller that turns specs' variable
// selectors into sim::OverrideMap page ranges (heap blocks via one
// allocation hook, static segments via sim::AddressSpace::find_static).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/whatif.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

namespace dcprof::wl {

/// Attaches what-if specs to one process for the duration of a re-run.
///
/// Construct *before* the workload object: heap targets are matched as
/// allocations happen (some workloads allocate in their constructor),
/// using the same identifying-IP rule the variable view uses to name
/// heap variables — the allocation instruction if annotated, else the
/// innermost annotated frame, else the direct caller. One allocation hook
/// serves every spec. Call resolve_statics() after construction (static
/// arrays register their segments then). What-if re-runs are unprofiled,
/// so the allocator's hook slot is free; installing over an enabled
/// profiler throws.
class OverrideInstaller {
 public:
  /// Where the specs' overrides go.
  enum class Timing {
    /// The one spec patches the machine itself: the per-spec reference.
    kMachine,
    /// Each non-empty spec gets a timing variant of the machine
    /// (sim::MemorySystem::add_variant) owning what its fixes need; an
    /// empty spec is the unpatched machine.
    kVariants,
  };

  OverrideInstaller(ProcessCtx& proc,
                    const std::vector<analysis::WhatIfSpec>& specs,
                    Timing timing);
  OverrideInstaller(const OverrideInstaller&) = delete;
  OverrideInstaller& operator=(const OverrideInstaller&) = delete;

  /// Resolves the specs' static targets against the address space and
  /// patches their page ranges. Idempotent per target.
  void resolve_statics();

  /// Pages spec `i`'s overrides patched so far (heap + static). 0 means
  /// no target attached.
  std::uint64_t pages_patched(std::size_t i) const {
    return specs_[i].pages_patched;
  }
  /// The machine variant timing spec `i` (MemorySystem::kPrimary: the
  /// machine itself).
  int variant(std::size_t i) const { return specs_[i].variant; }
  /// Variants that own TLBs, and page tables.
  int variants_owning_tlbs() const { return owning_tlbs_; }
  int variants_owning_page_tables() const { return owning_page_tables_; }

 private:
  struct HeapTarget {
    sim::Addr ip = 0;
    sim::OverrideEntry entry;
  };
  struct StaticTarget {
    std::string name;
    sim::OverrideEntry entry;
    bool resolved = false;
  };
  /// One spec's targets, merged per variable, and what they patched.
  struct Targets {
    int variant = sim::MemorySystem::kPrimary;
    std::vector<HeapTarget> heap;
    std::vector<StaticTarget> statics;
    /// Blocks patched, so frees drop exactly those ranges.
    std::map<sim::Addr, std::uint64_t> patched_blocks;
    std::uint64_t pages_patched = 0;
  };

  void on_alloc(rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size,
                sim::Addr ip);
  void on_free(sim::Addr base, std::uint64_t size);
  void add_range(Targets& t, sim::Addr base, std::uint64_t size,
                 sim::OverrideEntry e);

  ProcessCtx* proc_;
  std::vector<Targets> specs_;
  int owning_tlbs_ = 0;
  int owning_page_tables_ = 0;
};

struct WhatIfRunConfig {
  int threads = 16;        ///< ignored by the sweep3d (per-rank) runner
};

/// Per-spec runners: one re-execution per spec, the spec patched into the
/// machine itself. The reference every batch runner must equal.
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

/// Batch runners: one execution answers every spec, each timed by its own
/// machine variant (one execution per sim::Tlb::kMaxViews specs that own
/// TLBs; the CLI's batches hold far fewer). Sweep3D's rank messages and collectives carry one
/// clock, which a variant cannot follow, so its batch runs the per-spec
/// runner once per spec.
analysis::WhatIfBatchRunner make_amg_whatif_batch_runner(
    AmgParams prm, WhatIfRunConfig cfg = {});
analysis::WhatIfBatchRunner make_lulesh_whatif_batch_runner(
    LuleshParams prm, WhatIfRunConfig cfg = {});
analysis::WhatIfBatchRunner make_streamcluster_whatif_batch_runner(
    StreamclusterParams prm, WhatIfRunConfig cfg = {});
analysis::WhatIfBatchRunner make_nw_whatif_batch_runner(
    NwParams prm, WhatIfRunConfig cfg = {});
analysis::WhatIfBatchRunner make_sweep3d_whatif_batch_runner(
    Sweep3dParams prm);

/// True when `workload` names a re-runnable case study.
bool whatif_workload_known(const std::string& workload);
/// "amg|lulesh|streamcluster|nw|sweep3d", for CLI help.
const char* whatif_workload_names();

/// Standard runners for `workload` with dcprof_measure's default
/// parameters (the profile being analyzed must come from the same
/// configuration for the prediction to be exact).
analysis::WhatIfRunner make_whatif_runner(const std::string& workload,
                                          WhatIfRunConfig cfg = {});
analysis::WhatIfBatchRunner make_whatif_batch_runner(
    const std::string& workload, WhatIfRunConfig cfg = {});

}  // namespace dcprof::wl
