#include "core/profile.h"

#include <gtest/gtest.h>

#include <sstream>

namespace dcprof::core {
namespace {

ThreadProfile sample_profile() {
  ThreadProfile p;
  p.rank = 3;
  p.tid = 17;
  const StringId name = p.strings.intern("g_table");
  Cct& stat = p.cct(StorageClass::kStatic);
  const auto dummy = stat.child(Cct::kRootId, NodeKind::kVarStatic, name);
  const std::vector<sim::Addr> path{0x10, 0x20};
  const auto leaf = stat.insert_path(dummy, path, NodeKind::kLeafInstr, 0x30);
  MetricVec m;
  m[Metric::kSamples] = 5;
  m[Metric::kRemoteDram] = 2;
  m[Metric::kLatency] = 777;
  stat.add_metrics(leaf, m);

  Cct& heap = p.cct(StorageClass::kHeap);
  auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, 0x100);
  cur = heap.child(cur, NodeKind::kAllocPoint, 0x200);
  cur = heap.child(cur, NodeKind::kVarData, 0);
  const auto hleaf = heap.child(cur, NodeKind::kLeafInstr, 0x300);
  MetricVec hm;
  hm[Metric::kSamples] = 9;
  heap.add_metrics(hleaf, hm);
  return p;
}

TEST(ThreadProfile, RoundTripPreservesEverything) {
  const ThreadProfile original = sample_profile();
  std::stringstream buffer;
  original.write(buffer);
  const ThreadProfile copy = ThreadProfile::read(buffer.str());

  EXPECT_EQ(copy.rank, 3);
  EXPECT_EQ(copy.tid, 17);
  EXPECT_EQ(copy.strings.size(), original.strings.size());
  EXPECT_EQ(copy.strings.str(0), "g_table");
  for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
    ASSERT_EQ(copy.ccts[c].size(), original.ccts[c].size()) << c;
    for (std::size_t n = 0; n < copy.ccts[c].size(); ++n) {
      const auto& a = copy.ccts[c].node(static_cast<Cct::NodeId>(n));
      const auto& b = original.ccts[c].node(static_cast<Cct::NodeId>(n));
      EXPECT_EQ(a.kind, b.kind);
      EXPECT_EQ(a.sym, b.sym);
      EXPECT_EQ(a.parent, b.parent);
      EXPECT_EQ(a.metrics.v, b.metrics.v);
    }
  }
}

TEST(ThreadProfile, RoundTrippedCctIsUsable) {
  const ThreadProfile original = sample_profile();
  std::stringstream buffer;
  original.write(buffer);
  ThreadProfile copy = ThreadProfile::read(buffer.str());
  // Child index was rebuilt: find-or-create resolves existing nodes.
  Cct& heap = copy.cct(StorageClass::kHeap);
  const auto before = heap.size();
  heap.child(Cct::kRootId, NodeKind::kCallSite, 0x100);
  EXPECT_EQ(heap.size(), before);
}

TEST(ThreadProfile, TotalSamplesSumsAllClasses) {
  const ThreadProfile p = sample_profile();
  EXPECT_EQ(p.total_samples(), 14u);
}

TEST(ThreadProfile, EmptyProfileRoundTrips) {
  ThreadProfile empty;
  std::stringstream buffer;
  empty.write(buffer);
  const ThreadProfile copy = ThreadProfile::read(buffer.str());
  EXPECT_EQ(copy.total_samples(), 0u);
  for (const auto& cct : copy.ccts) EXPECT_EQ(cct.size(), 1u);
}

TEST(ThreadProfile, BadMagicRejected) {
  std::stringstream buffer;
  buffer << "not a profile at all";
  EXPECT_THROW(ThreadProfile::read(buffer.str()), std::runtime_error);
}

TEST(ThreadProfile, WrongVersionRejected) {
  const ThreadProfile original = sample_profile();
  std::stringstream buffer;
  original.write(buffer);
  std::string bytes = buffer.str();
  bytes[4] = static_cast<char>(99);  // corrupt the version field
  EXPECT_THROW(ThreadProfile::read(bytes), std::runtime_error);
}

TEST(ThreadProfile, TruncatedStreamRejected) {
  const ThreadProfile original = sample_profile();
  std::stringstream buffer;
  original.write(buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(ThreadProfile::read(bytes), std::runtime_error);
}

TEST(ThreadProfile, SerializedBytesMatchesStreamSize) {
  const ThreadProfile p = sample_profile();
  std::stringstream buffer;
  p.write(buffer);
  EXPECT_EQ(p.serialize().size(), buffer.str().size());
}

TEST(ThreadProfile, CompactnessGrowsSublinearlyWithRepeats) {
  // Re-recording the same contexts must not grow the profile.
  ThreadProfile p;
  Cct& heap = p.cct(StorageClass::kHeap);
  const std::vector<sim::Addr> path{0x1, 0x2, 0x3};
  const auto leaf = heap.insert_path(Cct::kRootId, path,
                                     NodeKind::kLeafInstr, 0x9);
  MetricVec m;
  m[Metric::kSamples] = 1;
  heap.add_metrics(leaf, m);
  const auto size_once = p.serialize().size();
  for (int i = 0; i < 1000; ++i) {
    heap.add_metrics(heap.insert_path(Cct::kRootId, path,
                                      NodeKind::kLeafInstr, 0x9),
                     m);
  }
  EXPECT_EQ(p.serialize().size(), size_once);
}

TEST(StorageClassNames, Stable) {
  EXPECT_STREQ(to_string(StorageClass::kHeap), "heap");
  EXPECT_STREQ(to_string(StorageClass::kStatic), "static");
  EXPECT_STREQ(to_string(StorageClass::kUnknown), "unknown");
  EXPECT_STREQ(to_string(StorageClass::kNoMem), "no-memory");
}

TEST(MetricVec, FromSampleMapsLevels) {
  pmu::Sample s;
  s.is_memory = true;
  s.latency = 300;
  s.source = sim::MemLevel::kRemoteDram;
  s.tlb_miss = true;
  const MetricVec m = MetricVec::from_sample(s);
  EXPECT_EQ(m[Metric::kSamples], 1u);
  EXPECT_EQ(m[Metric::kLatency], 300u);
  EXPECT_EQ(m[Metric::kRemoteDram], 1u);
  EXPECT_EQ(m[Metric::kTlbMiss], 1u);
  EXPECT_EQ(m[Metric::kL1Hits], 0u);
}

TEST(MetricVec, NonMemorySampleOnlyCounts) {
  pmu::Sample s;
  s.is_memory = false;
  s.latency = 300;  // ignored
  const MetricVec m = MetricVec::from_sample(s);
  EXPECT_EQ(m[Metric::kSamples], 1u);
  EXPECT_EQ(m[Metric::kLatency], 0u);
}

}  // namespace
}  // namespace dcprof::core
