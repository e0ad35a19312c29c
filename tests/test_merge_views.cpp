#include <gtest/gtest.h>

#include "analysis/merge.h"
#include "analysis/report.h"
#include "analysis/views.h"

namespace dcprof::analysis {
namespace {

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

MetricVec metrics(std::uint64_t samples, std::uint64_t remote = 0,
                  std::uint64_t latency = 0) {
  MetricVec m;
  m[Metric::kSamples] = samples;
  m[Metric::kRemoteDram] = remote;
  m[Metric::kLatency] = latency;
  return m;
}

/// Builds a profile with one heap variable (alloc path frame->allocip)
/// and one static variable.
ThreadProfile make_profile(sim::Addr frame, sim::Addr alloc_ip,
                           const std::string& static_name,
                           std::uint64_t samples) {
  ThreadProfile p;
  Cct& heap = p.cct(StorageClass::kHeap);
  auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, frame);
  cur = heap.child(cur, NodeKind::kAllocPoint, alloc_ip);
  cur = heap.child(cur, NodeKind::kVarData, 0);
  const auto leaf = heap.child(cur, NodeKind::kLeafInstr, 0x500);
  heap.add_metrics(leaf, metrics(samples, samples, 10 * samples));

  Cct& stat = p.cct(StorageClass::kStatic);
  const auto dummy = stat.child(Cct::kRootId, NodeKind::kVarStatic,
                                p.strings.intern(static_name));
  const auto sleaf = stat.child(dummy, NodeKind::kLeafInstr, 0x600);
  stat.add_metrics(sleaf, metrics(1, 0, 5));
  return p;
}

TEST(Merge, StaticVariablesMergeByNameAcrossStringTables) {
  // The two profiles intern names in different orders; the merge must
  // remap ids so same-named variables coalesce.
  ThreadProfile a;
  a.strings.intern("first");   // id 0 in a
  ThreadProfile b = make_profile(0x1, 0x2, "first", 1);
  ThreadProfile c = make_profile(0x1, 0x2, "other", 1);
  merge_into(a, b);
  merge_into(a, c);
  const Cct& stat = a.cct(StorageClass::kStatic);
  const auto kids = stat.children(Cct::kRootId);
  ASSERT_EQ(kids.size(), 2u);
  std::set<std::string> names;
  for (const auto k : kids) names.insert(a.strings.str(stat.node(k).sym));
  EXPECT_EQ(names, (std::set<std::string>{"first", "other"}));
}

TEST(Merge, SameNameCoalescesMetrics) {
  ThreadProfile a = make_profile(0x1, 0x2, "tbl", 3);
  ThreadProfile b = make_profile(0x1, 0x2, "tbl", 5);
  merge_into(a, b);
  const Cct& heap = a.cct(StorageClass::kHeap);
  EXPECT_EQ(heap.total()[Metric::kSamples], 8u);
  // One alloc point, one static dummy.
  const Cct& stat = a.cct(StorageClass::kStatic);
  EXPECT_EQ(stat.children(Cct::kRootId).size(), 1u);
}

TEST(Merge, RankTidBecomeAggregates) {
  ThreadProfile a = make_profile(0x1, 0x2, "t", 1);
  a.rank = 0;
  a.tid = 0;
  ThreadProfile b = make_profile(0x1, 0x2, "t", 1);
  b.rank = 1;
  b.tid = 4;
  merge_into(a, b);
  EXPECT_EQ(a.rank, -1);
  EXPECT_EQ(a.tid, -1);
}

TEST(Reduce, TotalsEqualSumOfInputs) {
  std::vector<ThreadProfile> inputs;
  std::uint64_t expected = 0;
  for (std::uint64_t i = 1; i <= 9; ++i) {
    inputs.push_back(make_profile(0x1, 0x2, "t", i));
    expected += i;
  }
  const ThreadProfile merged = reduce(std::move(inputs));
  EXPECT_EQ(merged.cct(StorageClass::kHeap).total()[Metric::kSamples],
            expected);
  // Static leaf contributed once per profile.
  EXPECT_EQ(merged.cct(StorageClass::kStatic).total()[Metric::kSamples], 9u);
}

TEST(Reduce, EmptyInputThrows) {
  EXPECT_THROW(reduce({}), std::invalid_argument);
}

TEST(Reduce, SingleProfilePassesThrough) {
  std::vector<ThreadProfile> one;
  one.push_back(make_profile(0x1, 0x2, "t", 7));
  const ThreadProfile merged = reduce(std::move(one));
  EXPECT_EQ(merged.total_samples(), 8u);
}

TEST(Summarize, FractionsPerStorageClass) {
  const ThreadProfile p = make_profile(0x1, 0x2, "t", 4);
  const ClassSummary s = summarize(p);
  EXPECT_EQ(s.grand[Metric::kSamples], 5u);
  EXPECT_DOUBLE_EQ(s.fraction(StorageClass::kHeap, Metric::kSamples), 0.8);
  EXPECT_DOUBLE_EQ(s.fraction(StorageClass::kStatic, Metric::kSamples), 0.2);
  EXPECT_DOUBLE_EQ(s.fraction(StorageClass::kUnknown, Metric::kSamples), 0);
}

TEST(VariableTable, ListsHeapStaticAndUnknownSorted) {
  ThreadProfile p = make_profile(0x1, 0x2, "tbl", 3);
  // Add unknown samples.
  Cct& unknown = p.cct(StorageClass::kUnknown);
  unknown.add_metrics(unknown.child(Cct::kRootId, NodeKind::kLeafInstr, 0x9),
                      metrics(10, 10));
  const AnalysisContext ctx;
  const auto rows = variable_table(p, ctx, Metric::kSamples);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].name, "unknown data");
  EXPECT_EQ(rows[0].cls, StorageClass::kUnknown);
  EXPECT_EQ(rows[1].cls, StorageClass::kHeap);
  EXPECT_EQ(rows[2].name, "tbl");
}

TEST(VariableTable, HeapVariableNamedByAnnotation) {
  const ThreadProfile p = make_profile(0x1, 0x2, "t", 3);
  std::map<sim::Addr, std::string> names{{0x1, "my_array"}};
  AnalysisContext ctx;
  ctx.alloc_names = &names;
  const auto rows = variable_table(p, ctx, Metric::kSamples);
  bool found = false;
  for (const auto& row : rows) {
    if (row.cls == StorageClass::kHeap) {
      EXPECT_EQ(row.name, "my_array");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(VariableTable, DistinctContextsAreDistinctVariables) {
  // Same alloc instruction, different call paths: two variables.
  ThreadProfile p;
  Cct& heap = p.cct(StorageClass::kHeap);
  for (const sim::Addr frame : {0x1ull, 0x7ull}) {
    auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, frame);
    cur = heap.child(cur, NodeKind::kAllocPoint, 0x99);
    cur = heap.child(cur, NodeKind::kVarData, 0);
    heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x500),
                     metrics(1));
  }
  const AnalysisContext ctx;
  const auto rows = variable_table(p, ctx, Metric::kSamples);
  EXPECT_EQ(rows.size(), 2u);
}

TEST(AccessTable, AggregatesByVariableAndIp) {
  ThreadProfile p = make_profile(0x1, 0x2, "t", 3);
  // A second access site on the same variable.
  Cct& heap = p.cct(StorageClass::kHeap);
  auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, 0x1);
  cur = heap.child(cur, NodeKind::kAllocPoint, 0x2);
  cur = heap.child(cur, NodeKind::kVarData, 0);
  heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x777),
                   metrics(9, 9));
  const AnalysisContext ctx;
  const auto rows = access_table(p, StorageClass::kHeap, ctx,
                                 Metric::kSamples);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].ip, 0x777u);  // sorted by samples desc
  EXPECT_EQ(rows[0].metrics[Metric::kSamples], 9u);
  EXPECT_EQ(rows[1].ip, 0x500u);
}

TEST(BottomUp, GroupsByAllocationCallSiteAcrossContexts) {
  // The same allocator call site reached from two different outer
  // contexts aggregates into one row with contexts == 2 (Figure 5).
  ThreadProfile p;
  Cct& heap = p.cct(StorageClass::kHeap);
  for (const sim::Addr outer : {0xa0ull, 0xb0ull}) {
    auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, outer);
    cur = heap.child(cur, NodeKind::kCallSite, 0x42);  // the call site
    cur = heap.child(cur, NodeKind::kAllocPoint, 0x99);
    cur = heap.child(cur, NodeKind::kVarData, 0);
    heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x500),
                     metrics(2, 2));
  }
  const AnalysisContext ctx;
  const auto rows = bottom_up_alloc_sites(p, ctx, Metric::kRemoteDram);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].ip, 0x42u);
  EXPECT_EQ(rows[0].contexts, 2u);
  EXPECT_EQ(rows[0].metrics[Metric::kRemoteDram], 4u);
}

TEST(TopDown, RendersTreeWithSharesAndLabels) {
  const ThreadProfile p = make_profile(0x1, 0x2, "tbl", 4);
  std::map<sim::Addr, std::string> names{{0x1, "hot_array"}};
  AnalysisContext ctx;
  ctx.alloc_names = &names;
  const std::string out = render_top_down(
      p, StorageClass::kHeap, ctx, {Metric::kSamples, 0.0, 64});
  EXPECT_NE(out.find("heap data accesses"), std::string::npos);
  EXPECT_NE(out.find("[hot_array]"), std::string::npos);
  EXPECT_NE(out.find("80.0%"), std::string::npos);  // 4 of 5 samples
}

TEST(TopDown, MinFractionPrunesColdSubtrees) {
  ThreadProfile p = make_profile(0x1, 0x2, "t", 100);
  Cct& heap = p.cct(StorageClass::kHeap);
  heap.add_metrics(heap.child(Cct::kRootId, NodeKind::kLeafInstr, 0xc01d),
                   metrics(1));
  const AnalysisContext ctx;
  const std::string pruned = render_top_down(
      p, StorageClass::kHeap, ctx, {Metric::kSamples, 0.05, 64});
  const std::string full = render_top_down(
      p, StorageClass::kHeap, ctx, {Metric::kSamples, 0.0, 64});
  EXPECT_LT(pruned.size(), full.size());
}

TEST(FunctionTable, AggregatesLeavesAcrossStorageClasses) {
  ThreadProfile p = make_profile(0x1, 0x2, "tbl", 3);
  // An unknown-class leaf at a different IP plus a nomem leaf at the
  // same IP as the heap leaf: the flat view sums by function.
  Cct& unknown = p.cct(StorageClass::kUnknown);
  unknown.add_metrics(
      unknown.child(Cct::kRootId, NodeKind::kLeafInstr, 0x500),
      metrics(4, 0, 40));
  const AnalysisContext ctx;  // no modules: functions render as "??"
  const auto rows = function_table(p, ctx, Metric::kSamples);
  ASSERT_EQ(rows.size(), 1u);  // 0x500 and 0x600 both unresolved -> "??"
  EXPECT_EQ(rows[0].func, "??");
  EXPECT_EQ(rows[0].metrics[Metric::kSamples], 8u);  // 3 + 1 + 4
}

TEST(ThreadTable, ReportsPerProfileTotals) {
  std::vector<ThreadProfile> profiles;
  profiles.push_back(make_profile(0x1, 0x2, "t", 3));
  profiles[0].rank = 1;
  profiles[0].tid = 5;
  profiles.push_back(make_profile(0x1, 0x2, "t", 9));
  const auto rows = thread_table(profiles);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].rank, 1);
  EXPECT_EQ(rows[0].tid, 5);
  EXPECT_EQ(rows[0].metrics[Metric::kSamples], 4u);
  EXPECT_EQ(rows[1].metrics[Metric::kSamples], 10u);
}

TEST(RenderVariables, ShowsTopRowsOnly) {
  ThreadProfile p;
  Cct& heap = p.cct(StorageClass::kHeap);
  for (sim::Addr i = 0; i < 30; ++i) {
    auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, i);
    cur = heap.child(cur, NodeKind::kAllocPoint, 0x99);
    cur = heap.child(cur, NodeKind::kVarData, 0);
    heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x500),
                     metrics(i + 1));
  }
  const AnalysisContext ctx;
  const auto rows = variable_table(p, ctx, Metric::kSamples);
  const std::string out =
      render_variables(rows, summarize(p), Metric::kSamples, 5);
  // Header + rule + 5 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 7);
}

}  // namespace
}  // namespace dcprof::analysis
