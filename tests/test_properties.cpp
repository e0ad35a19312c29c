// Cross-cutting property tests: randomized round-trips and parameter
// sweeps over invariants that individual unit tests spot-check.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/merge.h"
#include "core/profile.h"
#include "rt/team.h"
#include "sim/memory_system.h"
#include "support/rng.h"
#include "workloads/harness.h"

namespace dcprof {
namespace {

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

using test::Rng;

ThreadProfile random_profile(std::uint64_t seed) {
  Rng rng(seed);
  ThreadProfile p;
  p.rank = static_cast<std::int32_t>(rng.next() % 8);
  p.tid = static_cast<std::int32_t>(rng.next() % 64);
  for (int i = 0; i < 200; ++i) {
    auto& cct = p.ccts[rng.next() % core::kNumStorageClasses];
    Cct::NodeId cur = Cct::kRootId;
    const int depth = 1 + static_cast<int>(rng.next() % 8);
    for (int d = 0; d < depth; ++d) {
      cur = cct.child(cur, NodeKind::kCallSite, rng.next() % 64);
    }
    if (rng.next() % 3 == 0) {
      cur = cct.child(cur, NodeKind::kAllocPoint, rng.next() % 16);
      cur = cct.child(cur, NodeKind::kVarData, 0);
    } else if (rng.next() % 4 == 0) {
      cur = cct.child(cur, NodeKind::kVarStatic,
                      p.strings.intern("var" + std::to_string(rng.next() % 6)));
    }
    const auto leaf =
        cct.child(cur, NodeKind::kLeafInstr, rng.next() % 128);
    MetricVec m;
    for (std::size_t k = 0; k < core::kNumMetrics; ++k) {
      m.v[k] = rng.next() % 1000;
    }
    cct.add_metrics(leaf, m);
  }
  return p;
}

class ProfileFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ProfileFuzz, SerializationRoundTripIsExact) {
  SCOPED_TRACE(test::seed_note(static_cast<std::uint64_t>(GetParam())));
  const ThreadProfile original =
      random_profile(static_cast<std::uint64_t>(GetParam()));
  std::stringstream buffer;
  original.write(buffer);
  const ThreadProfile copy = ThreadProfile::read(buffer.str());
  EXPECT_EQ(copy.rank, original.rank);
  EXPECT_EQ(copy.tid, original.tid);
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    ASSERT_EQ(copy.ccts[c].size(), original.ccts[c].size());
    for (std::size_t n = 0; n < copy.ccts[c].size(); ++n) {
      const auto& a = copy.ccts[c].node(static_cast<Cct::NodeId>(n));
      const auto& b = original.ccts[c].node(static_cast<Cct::NodeId>(n));
      ASSERT_EQ(a.kind, b.kind);
      ASSERT_EQ(a.sym, b.sym);
      ASSERT_EQ(a.parent, b.parent);
      ASSERT_EQ(a.metrics.v, b.metrics.v);
    }
  }
}

TEST_P(ProfileFuzz, MergePreservesMetricTotals) {
  const int seed = GetParam();
  SCOPED_TRACE(test::seed_note(static_cast<std::uint64_t>(seed)));
  std::vector<ThreadProfile> inputs;
  MetricVec expected[core::kNumStorageClasses];
  for (int i = 0; i < 9; ++i) {
    inputs.push_back(
        random_profile(static_cast<std::uint64_t>(seed * 100 + i)));
    for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
      expected[c] += inputs.back().ccts[c].total();
    }
  }
  const ThreadProfile merged = analysis::reduce(std::move(inputs));
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    EXPECT_EQ(merged.ccts[c].total().v, expected[c].v) << "class " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// parallel_for must cover the range exactly once for any chunk size and
// thread count, and yield identical simulated results.
class ChunkSweep
    : public ::testing::TestWithParam<std::pair<int, std::int64_t>> {};

TEST_P(ChunkSweep, ParallelForCoversExactlyOnce) {
  const auto [threads, chunk] = GetParam();
  sim::MachineConfig cfg = wl::node_config();
  sim::Machine machine(cfg);
  rt::Team team(machine, threads);
  std::vector<int> hits(1013, 0);  // prime-sized range
  team.parallel_for(
      0, 1013, [&](rt::ThreadCtx&, std::int64_t i) { ++hits[i]; }, chunk);
  for (int i = 0; i < 1013; ++i) ASSERT_EQ(hits[i], 1) << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkSweep,
    ::testing::Values(std::pair{1, std::int64_t{16}},
                      std::pair{3, std::int64_t{1}},
                      std::pair{16, std::int64_t{7}},
                      std::pair{16, std::int64_t{4096}},
                      std::pair{37, std::int64_t{16}}));

// The leaky-bucket controller conserves work: total wait observed over a
// burst equals the arithmetic series of the backlog, and a long-idle
// controller is fully drained.
TEST(DramControllerProperty, BurstWaitsFollowBacklogSeries) {
  sim::DramController ctrl(/*service=*/64, /*banks=*/2);
  sim::Cycles total = 0;
  for (int i = 0; i < 50; ++i) total += ctrl.serve(0);
  // i-th access (0-based) waits i*64/2.
  sim::Cycles expected = 0;
  for (int i = 0; i < 50; ++i) expected += static_cast<sim::Cycles>(i) * 32;
  EXPECT_EQ(total, expected);
  EXPECT_EQ(ctrl.total_wait(), expected);
  // After a long gap, the backlog is gone.
  EXPECT_EQ(ctrl.serve(1'000'000), 0u);
}

// The machine's total simulated time is invariant to PMU attachment for
// every workload-shaped access pattern (the observer must never perturb).
class ObserverInvariance : public ::testing::TestWithParam<int> {};

TEST_P(ObserverInvariance, PmuNeverChangesTiming) {
  const auto run = [&](bool attach) {
    wl::ProcessCtx proc(wl::node_config(), 8, "app");
    if (attach) proc.enable_profiling(wl::ibs_config(64));
    rt::Team& team = proc.team();
    team.parallel_for(0, 20'000, [&](rt::ThreadCtx& t, std::int64_t i) {
      const sim::Addr addr =
          0x10000000 + (static_cast<sim::Addr>(i) * 131 % 100'000) * 8;
      if (i % 3 == 0) {
        t.store(addr, 8, 0x400000);
      } else {
        t.load(addr, 8, 0x400000);
      }
    });
    return team.now();
  };
  EXPECT_EQ(run(false), run(true));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObserverInvariance,
                         ::testing::Values(1, 42));

}  // namespace
}  // namespace dcprof
