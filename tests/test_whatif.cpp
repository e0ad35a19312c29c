#include "analysis/whatif.h"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/override.h"
#include "workloads/amg.h"
#include "workloads/rerun.h"
#include "workloads/sweep3d.h"

namespace dcprof::analysis {
namespace {

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;
using sim::LatencyOverride;
using sim::OverrideEntry;
using sim::OverrideMap;
using sim::PlacementOverride;

constexpr std::size_t kPage = 4096;

OverrideEntry local_entry() {
  OverrideEntry e;
  e.placement = PlacementOverride::kLocal;
  return e;
}

OverrideEntry zero_entry() {
  OverrideEntry e;
  e.latency = LatencyOverride::kZero;
  return e;
}

TEST(WhatIfOverrideMap, RoundsRangesOutwardToWholePages) {
  OverrideMap map(kPage);
  map.add_range(kPage + 100, 200, local_entry());  // inside page 1
  EXPECT_EQ(map.num_pages(), 1u);
  EXPECT_NE(map.lookup(kPage), nullptr);           // page start covered
  EXPECT_NE(map.lookup(2 * kPage - 1), nullptr);   // page end covered
  EXPECT_EQ(map.lookup(kPage - 1), nullptr);
  EXPECT_EQ(map.lookup(2 * kPage), nullptr);
}

TEST(WhatIfOverrideMap, FirstInstalledRangeWinsOnOverlap) {
  OverrideMap map(kPage);
  map.add_range(0, kPage, local_entry());
  map.add_range(0, 2 * kPage, zero_entry());  // overlaps page 0
  const OverrideEntry* first = map.lookup(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->placement, PlacementOverride::kLocal);
  EXPECT_EQ(first->latency, LatencyOverride::kNone);
  const OverrideEntry* second = map.lookup(kPage);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->latency, LatencyOverride::kZero);
}

TEST(WhatIfOverrideMap, RemoveRangeTrimsHeadAndTail) {
  OverrideMap map(kPage);
  map.add_range(0, 4 * kPage, local_entry());
  map.remove_range(kPage, kPage);  // drop page 1 only
  EXPECT_NE(map.lookup(0), nullptr);
  EXPECT_EQ(map.lookup(kPage), nullptr);
  EXPECT_NE(map.lookup(2 * kPage), nullptr);
  EXPECT_NE(map.lookup(3 * kPage), nullptr);
  EXPECT_EQ(map.num_pages(), 3u);
}

TEST(WhatIfOverrideMap, EmptyAfterRemovingEverything) {
  OverrideMap map(kPage);
  EXPECT_TRUE(map.empty());
  map.add_range(0, 2 * kPage, local_entry());
  EXPECT_FALSE(map.empty());
  map.remove_range(0, 2 * kPage);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.lookup(0), nullptr);
}

// --- Engine unit tests against a scripted fake runner ------------------

MetricVec metrics(std::uint64_t samples, std::uint64_t remote,
                  std::uint64_t latency) {
  MetricVec m;
  m[Metric::kSamples] = samples;
  m[Metric::kRemoteDram] = remote;
  m[Metric::kLatency] = latency;
  return m;
}

void add_heap_var(ThreadProfile& p, sim::Addr site, const MetricVec& m) {
  Cct& heap = p.cct(StorageClass::kHeap);
  auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, site);
  cur = heap.child(cur, NodeKind::kAllocPoint, site + 0x1000);
  cur = heap.child(cur, NodeKind::kVarData, 0);
  heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x500), m);
}

/// Scripted runner: baseline costs 1000 cycles; a patched run costs the
/// value scripted for its first action's (variable, fix) pair.
struct FakeRunner {
  std::map<std::pair<std::string, WhatIfFix>, sim::Cycles> cycles;
  int* baseline_runs = nullptr;
  double checksum = 42.0;
  double patched_checksum = 42.0;

  WhatIfRun operator()(const WhatIfSpec& spec) const {
    WhatIfRun r;
    r.checksum = checksum;
    if (spec.actions.empty()) {
      if (baseline_runs != nullptr) ++*baseline_runs;
      r.cycles = 1000;
      return r;
    }
    r.checksum = patched_checksum;
    r.pages_patched = 7;
    const auto& a = spec.actions.front();
    const auto it = cycles.find({a.target.name, a.fix});
    r.cycles = it != cycles.end() ? it->second : 1000;
    return r;
  }
};

TEST(WhatIf, BaselineRunsOnceAndIsCached) {
  int baseline_runs = 0;
  FakeRunner fake;
  fake.baseline_runs = &baseline_runs;
  WhatIfEngine engine(fake);
  EXPECT_EQ(engine.baseline().cycles, 1000u);
  EXPECT_EQ(engine.baseline().cycles, 1000u);
  engine.evaluate(WhatIfSpec{}, "noop");
  EXPECT_EQ(baseline_runs, 2);  // cache + the explicit empty-spec evaluate
  WhatIfSpec spec;
  spec.actions.push_back({WhatIfTarget{"v", StorageClass::kHeap, 1},
                          WhatIfFix::kPromote});
  engine.evaluate(spec);
  engine.evaluate(spec);
  EXPECT_EQ(baseline_runs, 2);  // still cached
}

TEST(WhatIf, ChecksumDivergenceThrows) {
  FakeRunner fake;
  fake.patched_checksum = 43.0;  // overrides must never change values
  WhatIfEngine engine(fake);
  WhatIfSpec spec;
  spec.actions.push_back({WhatIfTarget{"v", StorageClass::kHeap, 1},
                          WhatIfFix::kLocal});
  EXPECT_THROW(engine.evaluate(spec), std::logic_error);
}

TEST(WhatIf, MissingRunnerIsAnError) {
  EXPECT_THROW(WhatIfEngine(WhatIfRunner{}), std::invalid_argument);
}

TEST(WhatIf, CandidatesHonorTopNMinShareAndStorageClass) {
  ThreadProfile p;
  add_heap_var(p, 0x1, metrics(100, 50, 50'000));   // 50% of latency
  add_heap_var(p, 0x2, metrics(100, 10, 40'000));   // 40%
  add_heap_var(p, 0x3, metrics(100, 0, 9'500));     // 9.5%
  add_heap_var(p, 0x4, metrics(100, 0, 500));       // 0.5% — below min_share
  std::map<sim::Addr, std::string> names{
      {0x1, "a"}, {0x2, "b"}, {0x3, "c"}, {0x4, "d"}};
  AnalysisContext ctx;
  ctx.alloc_names = &names;
  WhatIfOptions opt;
  opt.top_n = 3;
  opt.min_share = 0.02;
  WhatIfEngine engine(FakeRunner{}, opt);
  const auto cands = engine.candidates(p, ctx);
  ASSERT_EQ(cands.size(), 3u);
  EXPECT_EQ(cands[0].target.name, "a");
  EXPECT_DOUBLE_EQ(cands[0].latency_share, 0.5);
  EXPECT_EQ(cands[0].remote_samples, 50u);
  EXPECT_EQ(cands[1].target.name, "b");
  EXPECT_EQ(cands[2].target.name, "c");
}

TEST(WhatIf, AnalyzeRanksBySpeedupAndSkipsPlacementWithoutRemote) {
  ThreadProfile p;
  add_heap_var(p, 0x1, metrics(100, 40, 60'000));  // remote: all 3 fixes
  add_heap_var(p, 0x2, metrics(100, 0, 40'000));   // local-only: promote
  std::map<sim::Addr, std::string> names{{0x1, "hot"}, {0x2, "cold"}};
  AnalysisContext ctx;
  ctx.alloc_names = &names;
  FakeRunner fake;
  fake.cycles[{"hot", WhatIfFix::kLocal}] = 800;       // 1.25x
  fake.cycles[{"hot", WhatIfFix::kInterleave}] = 900;  // 1.11x
  fake.cycles[{"hot", WhatIfFix::kPromote}] = 500;     // 2.0x
  fake.cycles[{"cold", WhatIfFix::kPromote}] = 800;    // 1.25x
  WhatIfOptions opt;
  opt.top_n = 2;
  WhatIfEngine engine(fake, opt);
  const auto preds = engine.analyze(p, ctx);
  ASSERT_EQ(preds.size(), 4u);  // 3 fixes for "hot" + promote for "cold"
  EXPECT_EQ(preds[0].label, "hot: promote misses one memory level");
  EXPECT_DOUBLE_EQ(preds[0].speedup, 2.0);
  // 1.25x tie: deterministic break on variable name ("cold" < "hot").
  EXPECT_EQ(preds[1].label, "cold: promote misses one memory level");
  EXPECT_EQ(preds[2].label, "hot: make remote accesses local");
  EXPECT_EQ(preds[3].label, "hot: interleave pages across nodes");
  EXPECT_EQ(preds[0].baseline_cycles, 1000u);
  EXPECT_EQ(preds[0].pages_patched, 7u);
  EXPECT_NEAR(preds[0].gain, 0.5, 1e-12);
}

TEST(WhatIf, RenderListsRankedFixesWithFooter) {
  WhatIfPrediction p;
  p.label = "Flux: promote misses one memory level";
  p.latency_share = 0.41;
  p.baseline_cycles = 1000;
  p.cycles = 800;
  p.speedup = 1.25;
  p.gain = 0.2;
  const std::string out = render_whatif({p});
  EXPECT_NE(out.find("fix"), std::string::npos);
  EXPECT_NE(out.find("speedup"), std::string::npos);
  EXPECT_NE(out.find("Flux: promote misses one memory level"),
            std::string::npos);
  EXPECT_NE(out.find("1.250x"), std::string::npos);
  EXPECT_NE(out.find("20.0%"), std::string::npos);
  EXPECT_NE(out.find("exact virtual speedups"), std::string::npos);
  EXPECT_NE(render_whatif({}).find("no what-if candidates"),
            std::string::npos);
}

TEST(WhatIf, ApplyPredictionsResortsAdviceByPredictedSpeedup) {
  std::vector<Advice> advice(2);
  advice[0].variable = "big";
  advice[0].severity = 0.9;
  advice[1].variable = "small";
  advice[1].severity = 0.2;
  WhatIfPrediction p;
  p.spec.actions.push_back({WhatIfTarget{"small", StorageClass::kHeap, 0},
                            WhatIfFix::kLocal});
  p.speedup = 1.4;
  apply_predictions(advice, {p});
  // The exact prediction outranks the heuristic severity.
  EXPECT_EQ(advice[0].variable, "small");
  EXPECT_DOUBLE_EQ(advice[0].predicted_speedup, 1.4);
  EXPECT_EQ(advice[1].variable, "big");
  EXPECT_DOUBLE_EQ(advice[1].predicted_speedup, 0.0);
}

// --- Rule/prediction agreement on the differential workloads -----------

TEST(WhatIfAgreement, AmgTopAdviceAndTopFixNameTheSameVariable) {
  wl::AmgParams prm;
  prm.rows = 40'000;
  prm.iters = 3;
  prm.small_allocs = 200;
  prm.workspace_doubles = 500'000;
  core::ThreadProfile profile;
  std::vector<Advice> advice;
  AnalysisContext ctx;
  std::map<sim::Addr, std::string> names;
  {
    wl::ProcessCtx proc(wl::node_config(), 16, "amg");
    proc.enable_profiling(wl::ibs_config(512));
    wl::Amg amg(proc, prm);
    amg.run();
    profile = proc.merged_profile();
    names = proc.alloc_names();
    ctx.alloc_names = &names;
    advice = advise(profile, proc.actx());
  }
  ASSERT_FALSE(advice.empty());
  WhatIfOptions opt;
  opt.top_n = 1;
  WhatIfEngine engine(wl::make_amg_whatif_runner(prm), opt);
  const auto preds = engine.analyze(profile, ctx);
  ASSERT_FALSE(preds.empty());
  // The heuristic rule and the exact re-run agree on the culprit.
  EXPECT_EQ(preds.front().spec.actions.front().target.name,
            advice.front().variable)
      << render_advice(advice) << render_whatif(preds);
  EXPECT_GT(preds.front().speedup, 1.0);
}

TEST(WhatIfAgreement, Sweep3dTopAdviceAndTopFixNameTheSameVariable) {
  wl::Sweep3dParams prm;
  prm.ranks = 1;
  prm.nx = 16;
  prm.ny = 40;
  prm.nz = 40;
  prm.compute_per_cell = 20;
  core::ThreadProfile profile;
  std::vector<Advice> advice;
  AnalysisContext ctx;
  std::map<sim::Addr, std::string> names;
  {
    wl::ProcessCtx proc(wl::rank_config(), 1, "sweep3d");
    proc.enable_profiling(wl::ibs_config(256));
    wl::Sweep3dRank rank(proc, prm, nullptr);
    rank.run();
    profile = proc.merged_profile();
    names = proc.alloc_names();
    ctx.alloc_names = &names;
    advice = advise(profile, proc.actx());
  }
  ASSERT_FALSE(advice.empty());
  WhatIfOptions opt;
  opt.top_n = 1;
  WhatIfEngine engine(wl::make_sweep3d_whatif_runner(prm), opt);
  const auto preds = engine.analyze(profile, ctx);
  // Single-node ranks have no remote DRAM, so only the promote fix runs.
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_EQ(preds.front().spec.actions.front().target.name,
            advice.front().variable)
      << render_advice(advice) << render_whatif(preds);
  EXPECT_GT(preds.front().speedup, 1.0);
  EXPECT_GT(preds.front().pages_patched, 0u);
}

}  // namespace
}  // namespace dcprof::analysis
