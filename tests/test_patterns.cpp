// Unit tests for the per-variable access-pattern tables (core) and the
// three memory-centric analysis views built on them: histogram edge
// cases (single access, top-bucket clamping, zero-access emptiness),
// recording semantics, merge/remap, serialization round trips, the
// profiler's access_patterns gate, and the stride classifier.
#include "core/patterns.h"

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/views.h"
#include "core/profile.h"
#include "core/profiler.h"
#include "obs/registry.h"
#include "rt/team.h"

namespace dcprof {
namespace {

using analysis::AnalysisContext;
using analysis::StridePattern;
using core::AccessPatternTable;
using core::kNumMemLevels;
using core::kPatternBuckets;
using core::StorageClass;
using core::ThreadProfile;
using core::VarPattern;
using core::VarPatternKey;

constexpr std::uint8_t kStatic =
    static_cast<std::uint8_t>(StorageClass::kStatic);
constexpr std::uint8_t kHeap = static_cast<std::uint8_t>(StorageClass::kHeap);

TEST(Patterns, BucketSchemeClampsAtTheTop) {
  EXPECT_EQ(core::pattern_bucket(0), 0u);
  EXPECT_EQ(core::pattern_bucket(1), 1u);
  EXPECT_EQ(core::pattern_bucket(2), 2u);
  EXPECT_EQ(core::pattern_bucket(3), 2u);
  EXPECT_EQ(core::pattern_bucket(64), 7u);
  // Anything >= 2^31 clamps into the top bucket...
  EXPECT_EQ(core::pattern_bucket(1ull << 31), kPatternBuckets - 1);
  EXPECT_EQ(core::pattern_bucket(~0ull), kPatternBuckets - 1);
  // ...whose limit reports "unbounded".
  EXPECT_EQ(core::pattern_bucket_limit(kPatternBuckets - 1), ~0ull);
  EXPECT_EQ(core::pattern_bucket_limit(6), 64u);
}

TEST(Patterns, BucketSchemeMatchesObsHistogram) {
  // pattern_bucket is an inlined copy of the obs::Histogram cell
  // scheme (clamped to kPatternBuckets); the two must never drift.
  for (std::uint64_t v = 0; v < 2048; ++v) {
    EXPECT_EQ(core::pattern_bucket(v),
              std::min(obs::Histogram::bucket_of(v), kPatternBuckets - 1))
        << "v=" << v;
  }
  for (std::size_t s = 0; s < 64; ++s) {
    const std::uint64_t v = 1ull << s;
    EXPECT_EQ(core::pattern_bucket(v),
              std::min(obs::Histogram::bucket_of(v), kPatternBuckets - 1))
        << "v=2^" << s;
  }
  for (std::size_t i = 0; i + 1 < kPatternBuckets; ++i) {
    EXPECT_EQ(core::pattern_bucket_limit(i), obs::Histogram::bucket_limit(i))
        << "bucket " << i;
  }
}

TEST(Patterns, SingleAccessHasNoReuseAndNoStride) {
  AccessPatternTable t;
  t.record(kStatic, 7, 0x1000, /*is_store=*/false, /*level=*/0);
  ASSERT_EQ(t.size(), 1u);
  const VarPattern& p = t.vars().at(VarPatternKey{kStatic, 7});
  EXPECT_EQ(p.accesses, 1u);
  EXPECT_EQ(p.cold_lines, 1u);  // first touch == the whole footprint
  EXPECT_EQ(p.loads(), 1u);
  EXPECT_EQ(p.stores(), 0u);
  EXPECT_EQ(p.strides_recorded(), 0u);
  for (std::size_t b = 0; b < kPatternBuckets; ++b) {
    EXPECT_EQ(p.reuse[b], 0u) << "bucket " << b;
  }
}

TEST(Patterns, HugeStrideClampsIntoTheTopBucket) {
  AccessPatternTable t;
  t.record(kHeap, 0x99, 0x1000, false, 4);
  t.record(kHeap, 0x99, 0x1000 + (1ull << 40), false, 4);
  const VarPattern& p = t.vars().at(VarPatternKey{kHeap, 0x99});
  EXPECT_EQ(p.strides_recorded(), 1u);
  EXPECT_EQ(p.stride[kPatternBuckets - 1], 1u);
}

TEST(Patterns, ReuseDistanceCountsAccessesBetweenLineTouches) {
  AccessPatternTable t;
  t.record(kStatic, 1, 0x1000, false, 1);  // line A, first touch
  t.record(kStatic, 1, 0x2000, false, 1);  // line B, first touch
  t.record(kStatic, 1, 0x1008, false, 1);  // line A again, distance 2
  const VarPattern& p = t.vars().at(VarPatternKey{kStatic, 1});
  EXPECT_EQ(p.accesses, 3u);
  EXPECT_EQ(p.cold_lines, 2u);
  std::uint64_t reuses = 0;
  for (std::size_t b = 0; b < kPatternBuckets; ++b) reuses += p.reuse[b];
  EXPECT_EQ(reuses, 1u);
  EXPECT_EQ(p.reuse[core::pattern_bucket(2)], 1u);
}

TEST(Patterns, LevelChannelMatrixTracksLoadsAndStores) {
  AccessPatternTable t;
  t.record(kStatic, 1, 0x1000, /*is_store=*/false, /*level=*/0);  // L1 load
  t.record(kStatic, 1, 0x1040, /*is_store=*/true, /*level=*/4);   // rDRAM st
  // An out-of-range level still counts as an access, just without a
  // level cell (defensive: levels come off the wire in merged input).
  t.record(kStatic, 1, 0x1080, false, kNumMemLevels + 2);
  const VarPattern& p = t.vars().at(VarPatternKey{kStatic, 1});
  EXPECT_EQ(p.accesses, 3u);
  EXPECT_EQ(p.level_channel[0][0], 1u);
  EXPECT_EQ(p.level_channel[4][1], 1u);
  EXPECT_EQ(p.loads() + p.stores(), 2u);
}

TEST(Patterns, EqualityIgnoresTransientRecordingState) {
  AccessPatternTable recorded;
  recorded.record(kStatic, 3, 0x1000, true, 2);
  AccessPatternTable folded;  // same durable counters via add()
  VarPattern p;
  p.accesses = 1;
  p.cold_lines = 1;
  p.level_channel[2][1] = 1;
  folded.add(kStatic, 3, p);
  EXPECT_TRUE(recorded == folded);
}

TEST(Patterns, MergeFromRemapsKeysAndAggregates) {
  AccessPatternTable src;
  src.record(kStatic, 1, 0x1000, false, 0);
  src.record(kHeap, 0x99, 0x2000, true, 4);
  AccessPatternTable dst;
  dst.record(kStatic, 5, 0x3000, false, 1);
  // Static/stack ids are re-interned during merge; heap ids pass through.
  dst.merge_from(src, [](std::uint8_t cls, std::uint64_t id) {
    return cls == kStatic ? id + 4 : id;
  });
  ASSERT_EQ(dst.size(), 2u);
  const VarPattern& s = dst.vars().at(VarPatternKey{kStatic, 5});
  EXPECT_EQ(s.accesses, 2u);  // remapped 1 -> 5 folded onto the existing row
  EXPECT_EQ(dst.vars().at(VarPatternKey{kHeap, 0x99}).accesses, 1u);
}

TEST(Patterns, RoundTripsThroughSerializedProfile) {
  ThreadProfile p;
  p.patterns.record(kStatic, p.strings.intern("g_tbl"), 0x1000, false, 0);
  for (int i = 0; i < 5; ++i) {
    p.patterns.record(kHeap, 0x42, 0x9000 + 64ull * i, i % 2 == 0, 3);
  }
  std::ostringstream out;
  p.write(out);
  const ThreadProfile back = ThreadProfile::read(out.str());
  EXPECT_TRUE(back.patterns == p.patterns);
  std::ostringstream again;
  back.write(again);
  EXPECT_EQ(again.str(), out.str());
}

TEST(Patterns, ZeroAccessTableYieldsEmptyViews) {
  const ThreadProfile p;  // no patterns recorded at all
  const AnalysisContext ctx;
  EXPECT_TRUE(analysis::mem_level_table(p, ctx).empty());
  EXPECT_TRUE(analysis::reuse_table(p, ctx).empty());
  EXPECT_TRUE(analysis::stride_table(p, ctx).empty());
}

TEST(Patterns, ReuseViewReportsMedianMaxAndFootprint) {
  ThreadProfile p;
  VarPattern pat;
  pat.accesses = 10;
  pat.cold_lines = 3;
  pat.reuse[2] = 4;  // distances <= 4
  pat.reuse[5] = 4;  // distances <= 32
  p.patterns.add(kStatic, p.strings.intern("g_tbl"), pat);
  const auto rows = analysis::reuse_table(p, AnalysisContext{});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "g_tbl");
  EXPECT_EQ(rows[0].reuses, 8u);
  EXPECT_EQ(rows[0].footprint_bytes, 3u * 64u);
  EXPECT_EQ(rows[0].median_distance, 4u);   // bucket 2 crosses half
  EXPECT_EQ(rows[0].max_distance, 32u);     // highest non-empty bucket
}

TEST(Patterns, StrideViewClassifiesAccessShapes) {
  ThreadProfile p;
  const AnalysisContext ctx;
  auto add = [&p](const char* name, const VarPattern& pat) {
    p.patterns.add(kStatic, p.strings.intern(name), pat);
  };
  VarPattern seq;  // all strides within one 64-byte line
  seq.accesses = 11;
  seq.stride[6] = 10;
  add("seq", seq);
  VarPattern strided;  // one dominant large stride bucket
  strided.accesses = 15;
  strided.stride[12] = 10;
  strided.stride[20] = 4;
  add("strided", strided);
  VarPattern random;  // mass spread across many buckets
  random.accesses = 16;
  for (std::size_t b = 8; b <= 16; b += 2) random.stride[b] = 3;
  add("random", random);
  VarPattern lone;  // accesses but never two in a row -> no strides
  lone.accesses = 5;
  add("lone", lone);

  const auto rows = analysis::stride_table(p, ctx);
  ASSERT_EQ(rows.size(), 4u);
  auto row = [&rows](const std::string& name) {
    for (const auto& r : rows) {
      if (r.name == name) return r;
    }
    ADD_FAILURE() << "no row " << name;
    return rows[0];
  };
  EXPECT_EQ(row("seq").pattern, StridePattern::kSequential);
  EXPECT_EQ(row("seq").dominant_stride, 64u);
  EXPECT_EQ(row("strided").pattern, StridePattern::kStrided);
  EXPECT_EQ(row("random").pattern, StridePattern::kRandom);
  EXPECT_EQ(row("lone").pattern, StridePattern::kUnknown);
  EXPECT_EQ(row("lone").strides, 0u);
}

sim::MachineConfig tiny_machine() {
  sim::MachineConfig cfg;
  cfg.sockets = 1;
  cfg.cores_per_socket = 1;
  cfg.l1 = sim::CacheConfig{1024, 2, 64};
  cfg.l2 = sim::CacheConfig{4096, 4, 64};
  cfg.l3 = sim::CacheConfig{16384, 8, 64};
  return cfg;
}

TEST(Patterns, ProfilerConfigGatesRecording) {
  for (const bool enabled : {true, false}) {
    sim::Machine machine(tiny_machine());
    rt::Team team(machine, 1);
    binfmt::ModuleRegistry modules;
    binfmt::LoadModule exe("exe", machine.aspace());
    const sim::Addr base = exe.add_static_var("g_tbl", 4096);
    modules.load(&exe);
    core::ProfilerConfig cfg;
    cfg.access_patterns = enabled;
    core::Profiler profiler(modules, cfg);
    profiler.register_team(team);
    pmu::Sample s;
    s.tid = 0;
    s.is_memory = true;
    s.precise_ip = 0x40;
    s.signal_ip = 0x48;
    s.eaddr = base + 8;
    s.latency = 100;
    s.source = sim::MemLevel::kL1;
    profiler.handle_sample(s);
    EXPECT_EQ(profiler.profile(0).patterns.empty(), !enabled)
        << "access_patterns=" << enabled;
  }
}

}  // namespace
}  // namespace dcprof
