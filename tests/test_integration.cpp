// End-to-end flows: measure -> attribute -> serialize -> merge -> view,
// single-process and hybrid MPI+OpenMP.
#include <gtest/gtest.h>

#include <mutex>
#include <sstream>

#include "analysis/merge.h"
#include "analysis/views.h"
#include "rt/cluster.h"
#include "rt/sim_array.h"
#include "workloads/harness.h"

namespace dcprof {
namespace {

/// Runs a small kernel with one cache-friendly array (A) and one
/// master-placed gathered array (B); returns the merged profile.
struct SmallApp {
  explicit SmallApp(wl::ProcessCtx& proc) : p(&proc) {
    binfmt::LoadModule& exe = proc.exe();
    const auto f_main = exe.add_function("main", "app.c");
    ip_alloc_a = exe.add_instr(f_main, 10);
    ip_alloc_b = exe.add_instr(f_main, 11);
    ip_kernel = exe.add_instr(f_main, 20);
    const auto f_k = exe.add_function("kernel", "app.c");
    ip_load_a = exe.add_instr(f_k, 31);
    ip_load_b = exe.add_instr(f_k, 32);
    proc.annotate(ip_alloc_a, "A");
    proc.annotate(ip_alloc_b, "B");
  }

  void run(std::int64_t n = 60'000) {
    rt::Team& team = p->team();
    team.single([&](rt::ThreadCtx& t) {
      rt::Scope s(t, ip_alloc_a);
      a = rt::SimArray<double>::calloc_in(p->alloc(), t,
                                          static_cast<std::uint64_t>(n),
                                          ip_alloc_a);
    });
    team.single([&](rt::ThreadCtx& t) {
      rt::Scope s(t, ip_alloc_b);
      b = rt::SimArray<double>::calloc_in(p->alloc(), t,
                                          static_cast<std::uint64_t>(4 * n),
                                          ip_alloc_b);
    });
    rt::TeamScope region(team, ip_kernel);
    team.parallel_for(0, n, [&](rt::ThreadCtx& t, std::int64_t i) {
      const auto u = static_cast<std::uint64_t>(i);
      a.get(t, u, ip_load_a);
      b.get(t, static_cast<std::uint64_t>((i * 97) % (4 * n)), ip_load_b);
    });
  }

  wl::ProcessCtx* p;
  rt::SimArray<double> a, b;
  sim::Addr ip_alloc_a{}, ip_alloc_b{}, ip_kernel{}, ip_load_a{}, ip_load_b{};
};

TEST(Integration, EndToEndAttributionAndViews) {
  wl::ProcessCtx proc(wl::node_config(), 16, "app");
  SmallApp app(proc);
  proc.enable_profiling(wl::ibs_config(256));
  app.run();

  core::ThreadProfile merged = proc.merged_profile();
  EXPECT_GT(merged.total_samples(), 100u);

  const auto summary = analysis::summarize(merged);
  // All data is heap-allocated here.
  EXPECT_GT(summary.fraction(core::StorageClass::kHeap,
                             core::Metric::kRemoteDram),
            0.95);

  const auto vars = analysis::variable_table(merged, proc.actx(),
                                             core::Metric::kLatency);
  ASSERT_GE(vars.size(), 2u);
  // The gathered, oversized B dominates latency.
  EXPECT_EQ(vars[0].name, "B");
  EXPECT_GT(vars[0].metrics[core::Metric::kLatency],
            vars[1].metrics[core::Metric::kLatency]);

  // Views render and mention both variables.
  const std::string top = analysis::render_top_down(
      merged, core::StorageClass::kHeap, proc.actx(),
      {core::Metric::kLatency, 0.0, 64});
  EXPECT_NE(top.find("[B]"), std::string::npos);
  EXPECT_NE(top.find("kernel (app.c:32)"), std::string::npos);
}

TEST(Integration, ProfilesSurviveSerializationBeforeMerge) {
  wl::ProcessCtx proc(wl::node_config(), 8, "app");
  SmallApp app(proc);
  proc.enable_profiling(wl::ibs_config(256));
  app.run(30'000);

  auto profiles = proc.take_profiles();
  ASSERT_GT(profiles.size(), 1u);
  // Round-trip every per-thread profile through the binary format (the
  // measurement -> post-mortem handoff), then merge.
  std::vector<core::ThreadProfile> loaded;
  std::uint64_t samples = 0;
  for (const auto& p : profiles) {
    samples += p.total_samples();
    std::stringstream buffer;
    p.write(buffer);
    loaded.push_back(core::ThreadProfile::read(buffer.str()));
  }
  const core::ThreadProfile merged = analysis::reduce(std::move(loaded));
  EXPECT_EQ(merged.total_samples(), samples);
  EXPECT_EQ(merged.tid, -1);
}

TEST(Integration, HybridClusterProfilesMergeAcrossRanks) {
  rt::Cluster cluster(2, wl::node_config(), 4);
  std::vector<core::ThreadProfile> rank_profiles(2);
  std::mutex mu;
  cluster.run([&](rt::Rank& rank) {
    wl::ProcessCtx proc(rank, "app");
    SmallApp app(proc);
    proc.enable_profiling(wl::ibs_config(256), {}, rank.id());
    app.run(30'000);
    std::lock_guard lock(mu);
    rank_profiles[static_cast<std::size_t>(rank.id())] =
        proc.merged_profile();
  });
  const std::uint64_t s0 = rank_profiles[0].total_samples();
  const std::uint64_t s1 = rank_profiles[1].total_samples();
  EXPECT_GT(s0, 0u);
  // Ranks execute identical work on identical machines: deterministic.
  EXPECT_EQ(s0, s1);
  core::ThreadProfile global = analysis::reduce(std::move(rank_profiles));
  EXPECT_EQ(global.total_samples(), s0 + s1);
  EXPECT_EQ(global.rank, -1);
}

TEST(Integration, PmuCountingOnlyBaselineTakesNoSamples) {
  wl::ProcessCtx proc(wl::node_config(), 4, "app");
  SmallApp app(proc);
  proc.enable_profiling(wl::ibs_config(256), {}, 0,
                        /*tool_attached=*/false);
  app.run(10'000);
  EXPECT_EQ(proc.profiler(), nullptr);
  EXPECT_GT(proc.pmu()->samples_taken(), 0u);  // PMU fired, nobody listened
}

TEST(Integration, ProfilingDoesNotPerturbSimulatedResults) {
  const auto run = [](bool profiled) {
    wl::ProcessCtx proc(wl::node_config(), 8, "app");
    SmallApp app(proc);
    if (profiled) proc.enable_profiling(wl::ibs_config(128));
    app.run(20'000);
    return proc.team().now();
  };
  // The observer records but never alters timing or data.
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace dcprof
