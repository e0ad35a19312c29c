// Causal what-if advisor (the paper's Section 7 guidance item, grounded
// in TASKPROF-style causal profiling): for each top variable of a
// measured run, predict the end-to-end payoff of a concrete fix by
// *re-executing* the workload with that fix patched into the machine —
// NUMA-local placement, interleaved placement, or promotion of the
// variable's misses to the next memory level — via sim::OverrideMap.
// Because the simulator is deterministic, the virtual speedup is exact
// (a re-measured hypothetical), not an estimate.
//
// Layering: re-running requires the workloads layer, which depends on
// analysis; the engine therefore takes a type-erased runner callback and
// never links workloads itself. wl::make_whatif_batch_runner builds the
// standard one for the case-study workloads: one simulation answers a
// whole list of specs. wl::make_whatif_runner is the per-spec reference
// (one re-execution per spec) that the batch is tested against.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/advisor.h"
#include "analysis/views.h"
#include "core/profile.h"
#include "sim/override.h"
#include "sim/types.h"

namespace dcprof::analysis {

/// Candidate fixes the engine evaluates per variable.
enum class WhatIfFix : std::uint8_t {
  kLocal,       ///< serve every fill from the toucher's node (perfect NUMA)
  kInterleave,  ///< bind the variable's pages round-robin (libnuma fix)
  kPromote,     ///< misses cost one level less (data-layout fix)
};

const char* to_string(WhatIfFix fix);

/// The sim-layer override entry implementing `fix`.
sim::OverrideEntry override_for(WhatIfFix fix);

/// Selects one measured variable in a re-run. Heap variables are matched
/// by their identifying allocation IP (the innermost annotated frame of
/// the allocation path — the same rule the variable view uses to name
/// them); static variables by name via sim::AddressSpace::find_static.
struct WhatIfTarget {
  std::string name;
  core::StorageClass cls = core::StorageClass::kHeap;
  sim::Addr alloc_ip = 0;  ///< heap only
};

struct WhatIfAction {
  WhatIfTarget target;
  WhatIfFix fix = WhatIfFix::kLocal;
};

/// One hypothetical run: all actions are applied simultaneously. An
/// empty action list is the baseline (unpatched re-run).
struct WhatIfSpec {
  std::vector<WhatIfAction> actions;
};

/// What one re-run reports back to the engine.
struct WhatIfRun {
  sim::Cycles cycles = 0;
  double checksum = 0;
  /// Pages the spec's overrides ended up covering — 0 means the fix
  /// never attached to any data (e.g. a misspelled variable).
  std::uint64_t pages_patched = 0;
};

/// Re-executes the workload with `spec` patched in. Must be
/// deterministic: the same spec always yields the same cycles.
using WhatIfRunner = std::function<WhatIfRun(const WhatIfSpec&)>;

/// Answers a list of specs, returning one WhatIfRun per spec, in order;
/// an empty spec is the unpatched baseline. Each answer must equal the
/// per-spec runner's for that spec.
using WhatIfBatchRunner =
    std::function<std::vector<WhatIfRun>(const std::vector<WhatIfSpec>&)>;

struct WhatIfOptions {
  /// Evaluate at most this many candidate variables.
  std::size_t top_n = 3;
  /// A candidate must carry at least this share of total latency.
  double min_share = 0.02;
};

struct WhatIfCandidate {
  WhatIfTarget target;
  double latency_share = 0;
  std::uint64_t remote_samples = 0;
};

/// One evaluated hypothetical, with its exact virtual speedup.
struct WhatIfPrediction {
  WhatIfSpec spec;
  std::string label;  ///< e.g. "Flux: promote misses to next level"
  double latency_share = 0;  ///< candidate's share (0 for composites)
  sim::Cycles baseline_cycles = 0;
  sim::Cycles cycles = 0;
  std::uint64_t pages_patched = 0;
  double speedup = 1.0;  ///< baseline / patched
  double gain = 0.0;     ///< 1 - patched / baseline
};

class WhatIfEngine {
 public:
  /// Per-spec runner, run as a batch that re-executes once per spec.
  explicit WhatIfEngine(WhatIfRunner runner, WhatIfOptions options = {});
  explicit WhatIfEngine(WhatIfBatchRunner runner, WhatIfOptions options = {});

  /// Top-N heap/static variables of the profile by latency share.
  std::vector<WhatIfCandidate> candidates(const core::ThreadProfile& profile,
                                          const AnalysisContext& ctx) const;

  /// Evaluates every applicable fix for every candidate (placement fixes
  /// need remote samples; promotion always applies) and returns the
  /// predictions ranked by speedup, deterministic tie-break on variable
  /// name then fix. Every spec, and the baseline unless it is cached,
  /// goes to the runner in one batch.
  std::vector<WhatIfPrediction> analyze(const core::ThreadProfile& profile,
                                        const AnalysisContext& ctx);

  /// Exact evaluation of one (possibly composite) spec; batched with the
  /// baseline when that is not cached yet.
  WhatIfPrediction evaluate(const WhatIfSpec& spec, std::string label = "");

  /// The cached baseline re-run (executes it on first use).
  const WhatIfRun& baseline();

 private:
  /// Runs `specs` as one batch, with the baseline in front (and cached)
  /// when it is not cached yet; returns the runs of `specs` only.
  std::vector<WhatIfRun> run(const std::vector<WhatIfSpec>& specs);
  /// `run` measured against the cached baseline (the checksum guard).
  WhatIfPrediction predict(const WhatIfSpec& spec, std::string label,
                           const WhatIfRun& run) const;

  WhatIfBatchRunner runner_;
  WhatIfOptions opt_;
  WhatIfRun baseline_{};
  bool have_baseline_ = false;
};

/// Renders the ranked fix list as a text table.
std::string render_whatif(const std::vector<WhatIfPrediction>& predictions);

/// Attaches predictions to matching advice (by variable name; a
/// variable's best prediction wins) and re-sorts so the exact predicted
/// end-to-end speedup — not the heuristic severity — is the primary sort
/// key. Advice without a prediction keeps severity order below the
/// predicted entries.
void apply_predictions(std::vector<Advice>& advice,
                       const std::vector<WhatIfPrediction>& predictions);

}  // namespace dcprof::analysis
