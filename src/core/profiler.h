// The online data-centric call-path profiler. Wires the PMU's samples and
// the allocator's hooks to per-thread profiles:
//  * each sample is attributed to the variable owning its effective
//    address (heap block -> allocation call path; static range -> symbol;
//    otherwise unknown) and to the sample's full calling context;
//  * heap samples get the allocation path *prepended* to the access path,
//    under a dummy "data accesses" node, so same-variable accesses from
//    any thread merge;
//  * per-thread CCTs mean no synchronization on the hot path;
//  * sample attribution is trampoline-memoized: each thread remembers the
//    CCT node path of its previous sample per storage class, and a sample
//    whose calling context shares a prefix with it (validated by the
//    ThreadCtx stack watermark, not a frame-by-frame compare) resumes the
//    walk at the divergence point. The caches only skip find-or-create
//    steps whose outcome is already known, so profiles are byte-identical
//    with memoization on or off.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "binfmt/load_module.h"
#include "core/alloc_tracker.h"
#include "core/profile.h"
#include "core/var_map.h"
#include "obs/registry.h"
#include "pmu/pmu.h"
#include "rt/alloc.h"
#include "rt/team.h"
#include "rt/thread.h"

namespace dcprof::core {

struct ProfilerConfig {
  TrackerConfig tracker;
  /// Attribute to the PMU's precise IP (true, the paper's approach) or to
  /// the skidded signal IP (false; the ablation baseline).
  bool use_precise_ip = true;
  /// Attribute stack-segment addresses to per-thread stack variables
  /// (the paper's future-work extension). When false, stack accesses
  /// fall through to unknown data, as in the paper.
  bool attribute_stack = true;
  /// Trampoline-memoized sample attribution: resume the CCT walk of the
  /// previous sample's calling context at the divergence point. Off =
  /// every sample walks all frames from its anchor (ablation baseline;
  /// output profiles are byte-identical either way).
  bool memoized_attribution = true;
  /// MRU cache in front of the heap interval map (see HeapVarMap).
  bool var_map_mru = true;
  /// Per-variable access-pattern analytics (memory-level/channel matrix,
  /// reuse-distance and stride histograms), recorded at attribution time
  /// into the owning thread's profile. Off leaves the v4 pattern table
  /// empty; profiles are otherwise unchanged.
  bool access_patterns = true;
};

/// Point-in-time view of a profiler's registry counters
/// (`profiler.samples{outcome=...}`, `profiler.class_samples{class=...}`,
/// `profiler.memo_frames{kind=reused|walked}`).
struct ProfilerStats {
  std::uint64_t samples_handled = 0;
  std::uint64_t samples_dropped = 0;  ///< unregistered thread
  std::uint64_t heap_samples = 0;
  std::uint64_t static_samples = 0;
  std::uint64_t stack_samples = 0;
  std::uint64_t unknown_samples = 0;
  std::uint64_t nomem_samples = 0;
  // Attribution-memo effectiveness, in frames (the unit of saved work):
  // a fully repeated context re-walks 0 frames and reuses all of them.
  std::uint64_t memo_frames_reused = 0;  ///< resumed from the cached path
  std::uint64_t memo_frames_walked = 0;  ///< walked through the CCT index
};

class Profiler {
 public:
  explicit Profiler(binfmt::ModuleRegistry& modules,
                    ProfilerConfig cfg = {}, std::int32_t rank = 0);

  /// Installs this profiler as the PMU's sample handler.
  void attach_pmu(pmu::PmuSet& pmu);
  /// Installs allocation-tracking hooks on the allocator.
  void attach_allocator(rt::Allocator& alloc);

  /// Registers a thread so samples carrying its tid can be unwound.
  void register_thread(rt::ThreadCtx& ctx);
  /// Registers every thread of a team.
  void register_team(rt::Team& team);

  /// Sample entry point (also callable directly by tests).
  void handle_sample(const pmu::Sample& sample);

  ThreadProfile& profile(sim::ThreadId tid);
  /// Moves out all per-thread profiles (ends measurement).
  std::vector<ThreadProfile> take_profiles();

  ProfilerStats stats() const;
  TrackerStats tracker_stats() const { return tracker_.stats(); }
  HeapVarMap& heap_map() { return var_map_; }
  AllocTracker& tracker() { return tracker_; }

 private:
  /// Memoized state for one (thread, storage class): the CCT node after
  /// each frame of the last inserted calling context, hanging under
  /// `anchor` (root, or the variable's dummy node). `valid` counts the
  /// leading frames still trusted, min-reduced by every sample's stack
  /// watermark.
  struct ClassMemo {
    Cct::NodeId anchor = Cct::kRootId;
    bool anchor_known = false;
    std::vector<Cct::NodeId> nodes;
    std::size_t valid = 0;
  };

  /// Per-thread attribution caches and the pattern recorder. All cached
  /// ids are local to the thread's current ThreadProfile, and the
  /// recorder fills that profile's table, so take_profiles resets this
  /// state.
  struct ThreadAttrState {
    explicit ThreadAttrState(AccessPatternTable& table) : patterns(table) {}
    ClassMemo memo[kNumStorageClasses];
    // Last heap sample's allocation path -> its kVarData anchor node
    // (AllocPaths are interned for the profiler's lifetime, so pointer
    // identity is stable).
    const AllocPath* last_heap_path = nullptr;
    Cct::NodeId heap_anchor = Cct::kRootId;
    // Interned-name caches: static symbol base address / stack owner ->
    // StringId in this thread's table. Steady-state samples intern and
    // allocate nothing.
    std::unordered_map<sim::Addr, StringId> static_names;
    std::unordered_map<std::uint64_t, StringId> stack_names;
    PatternRecorder patterns;
  };

  /// `tp` is thread `tid`'s profile: its state records into tp's table.
  ThreadAttrState& attr_state(std::size_t tid, ThreadProfile& tp);

  /// Classifies one sample and attributes it (the body of handle_sample,
  /// split out so telemetry can bracket every exit path).
  void attribute_sample(const pmu::Sample& sample, rt::ThreadCtx& ctx,
                        ThreadProfile& tp, ThreadAttrState& as);

  /// Inserts the calling context under `anchor` in the class's CCT,
  /// resuming from the memoized path where the watermark allows, then
  /// adds `m` to the (leaf_kind-free) kLeafInstr leaf at `leaf_ip`.
  void attribute_context(ThreadProfile& tp, StorageClass sc,
                         ThreadAttrState& as, Cct::NodeId anchor,
                         std::span<const sim::Addr> stack,
                         sim::Addr leaf_ip, const MetricVec& m);

  binfmt::ModuleRegistry* modules_;
  ProfilerConfig cfg_;
  std::int32_t rank_;
  pmu::PmuSet* pmu_ = nullptr;  ///< set by attach_pmu; stamps the period
  HeapVarMap var_map_;
  AllocPathSet paths_;
  AllocTracker tracker_;
  std::vector<rt::ThreadCtx*> threads_;                 // by tid
  std::vector<std::unique_ptr<ThreadProfile>> profiles_;  // by tid
  std::vector<std::unique_ptr<ThreadAttrState>> attr_;    // by tid

  // Registry-backed telemetry (this profiler's private cells). Counter
  // bumps are unconditional (plain add); wall-clock reads feeding the
  // latency histogram and depth/growth metrics are metrics_enabled-gated.
  struct Telemetry {
    obs::Counter handled, dropped;
    obs::Counter class_samples[kNumStorageClasses];
    obs::Counter memo_reused, memo_walked;
    obs::Counter sample_ns;       ///< total handling time (overhead report)
    obs::Counter cct_nodes;       ///< CCT growth, nodes
    obs::Counter cct_bytes;       ///< CCT growth, approx bytes
    obs::Histogram sample_ns_hist;
    obs::Histogram attr_depth[kNumStorageClasses];
    Telemetry();
  };
  Telemetry tm_;
};

}  // namespace dcprof::core
