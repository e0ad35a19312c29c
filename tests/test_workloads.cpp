#include <gtest/gtest.h>

#include <sstream>

#include "analysis/views.h"
#include "analysis/whatif.h"
#include "core/checksum.h"
#include "workloads/amg.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/rerun.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

namespace dcprof::wl {
namespace {

AmgParams small_amg(AmgVariant v = AmgVariant::kOriginal) {
  AmgParams prm;
  prm.rows = 12'000;
  prm.iters = 2;
  prm.small_allocs = 100;
  prm.workspace_doubles = 20'000;
  prm.symbolic_cycles_per_row = 10;
  prm.variant = v;
  return prm;
}

TEST(Amg, DeterministicAcrossRuns) {
  const auto run = [] {
    ProcessCtx proc(node_config(), 8, "amg");
    Amg amg(proc, small_amg());
    const RunResult r = amg.run();
    return std::pair{r.checksum, r.sim_cycles};
  };
  EXPECT_EQ(run(), run());
}

TEST(Amg, VariantsComputeIdenticalResults) {
  double reference = 0;
  for (const auto v : {AmgVariant::kOriginal, AmgVariant::kNumactl,
                       AmgVariant::kLibnuma}) {
    ProcessCtx proc(node_config(), 8, "amg");
    Amg amg(proc, small_amg(v));
    const RunResult r = amg.run();
    if (v == AmgVariant::kOriginal) {
      reference = r.checksum;
    } else {
      EXPECT_EQ(r.checksum, reference) << to_string(v);
    }
  }
}

TEST(Amg, ReportsThreePhases) {
  ProcessCtx proc(node_config(), 8, "amg");
  Amg amg(proc, small_amg());
  const RunResult r = amg.run();
  EXPECT_GT(r.phase("initialization"), 0u);
  EXPECT_GT(r.phase("setup"), 0u);
  EXPECT_GT(r.phase("solver"), 0u);
  EXPECT_THROW(r.phase("nonsense"), std::out_of_range);
  EXPECT_GE(r.sim_cycles,
            r.phase("initialization") + r.phase("setup") + r.phase("solver"));
}

TEST(Amg, ProfileAttributesSolverRemoteAccessesToMatrixArrays) {
  ProcessCtx proc(node_config(), 16, "amg");
  AmgParams prm = small_amg();
  prm.rows = 40'000;
  Amg amg(proc, prm);
  proc.enable_profiling(rmem_config(32));
  amg.run();
  const core::ThreadProfile merged = proc.merged_profile();
  const auto summary = analysis::summarize(merged);
  EXPECT_GT(summary.fraction(core::StorageClass::kHeap,
                             core::Metric::kRemoteDram),
            0.8);
  const auto vars = analysis::variable_table(merged, proc.actx(),
                                             core::Metric::kRemoteDram);
  ASSERT_GE(vars.size(), 3u);
  // The matrix arrays lead, with S_diag_j among them (Figure 4; its
  // exact rank depends on problem size).
  std::set<std::string> top{vars[0].name, vars[1].name, vars[2].name};
  EXPECT_TRUE(top.count("S_diag_j")) << vars[0].name;
}

TEST(Sweep3d, TransposePreservesResultsExactly) {
  Sweep3dParams prm;
  prm.ranks = 2;
  prm.nx = 8;
  prm.ny = 24;
  prm.nz = 24;
  const auto base = run_sweep3d_cluster(prm, false);
  prm.transposed = true;
  const auto fixed = run_sweep3d_cluster(prm, false);
  EXPECT_EQ(base.checksum, fixed.checksum);
}

TEST(Sweep3d, TransposeImprovesSimulatedTime) {
  Sweep3dParams prm;
  prm.ranks = 2;
  prm.nx = 16;
  prm.ny = 32;
  prm.nz = 32;
  prm.compute_per_cell = 10;  // nearly memory-bound at this size
  const auto base = run_sweep3d_cluster(prm, false);
  prm.transposed = true;
  const auto fixed = run_sweep3d_cluster(prm, false);
  EXPECT_LT(fixed.sim_cycles, base.sim_cycles);
}

TEST(Sweep3d, ClusterRunIsDeterministic) {
  Sweep3dParams prm;
  prm.ranks = 3;
  prm.nx = 8;
  prm.ny = 16;
  prm.nz = 16;
  const auto a = run_sweep3d_cluster(prm, false);
  const auto b = run_sweep3d_cluster(prm, false);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.sim_cycles, b.sim_cycles);
}

TEST(Sweep3d, ProfiledRunAttributesLatencyToFluxSrcFace) {
  Sweep3dParams prm;
  prm.ranks = 2;
  prm.nx = 16;
  prm.ny = 32;
  prm.nz = 32;
  const auto run = run_sweep3d_cluster(prm, true, ibs_config(256));
  ASSERT_TRUE(run.profile.has_value());
  ProcessCtx labels(rank_config(), 1, "sweep3d");
  Sweep3dRank structure(labels, prm, nullptr);
  const auto vars = analysis::variable_table(*run.profile, labels.actx(),
                                             core::Metric::kLatency);
  ASSERT_GE(vars.size(), 3u);
  std::set<std::string> top;
  for (std::size_t i = 0; i < 3; ++i) top.insert(vars[i].name);
  EXPECT_TRUE(top.count("Flux"));
  EXPECT_TRUE(top.count("Src"));
}

TEST(Amg, HybridClusterRunIsDeterministicAcrossRanks) {
  const auto run = [] {
    rt::Cluster cluster(2, node_config(), 4);
    std::vector<double> checksums(2, 0);
    cluster.run([&](rt::Rank& rank) {
      ProcessCtx proc(rank, "amg");
      Amg amg(proc, small_amg(), &rank);
      checksums[static_cast<std::size_t>(rank.id())] = amg.run().checksum;
    });
    return checksums;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
  // Both ranks run the same problem: identical results.
  EXPECT_EQ(a[0], a[1]);
}

LuleshParams small_lulesh() {
  LuleshParams prm;
  prm.nelem = 6'000;
  prm.iters = 1;
  return prm;
}

TEST(Lulesh, FixesPreserveResultsExactly) {
  double reference = 0;
  for (int mode = 0; mode < 4; ++mode) {
    LuleshParams prm = small_lulesh();
    prm.interleave_heap = (mode & 1) != 0;
    prm.transpose_static = (mode & 2) != 0;
    ProcessCtx proc(node_config(), 8, "lulesh");
    Lulesh lulesh(proc, prm);
    const RunResult r = lulesh.run();
    if (mode == 0) {
      reference = r.checksum;
    } else {
      EXPECT_EQ(r.checksum, reference) << "mode " << mode;
    }
  }
}

TEST(Lulesh, ProfiledRunSeesStaticFElem) {
  ProcessCtx proc(node_config(), 16, "lulesh");
  LuleshParams prm = small_lulesh();
  prm.nelem = 20'000;
  prm.iters = 2;
  Lulesh lulesh(proc, prm);
  proc.enable_profiling(ibs_config(256));
  lulesh.run();
  const core::ThreadProfile merged = proc.merged_profile();
  const auto vars = analysis::variable_table(merged, proc.actx(),
                                             core::Metric::kLatency);
  bool found = false;
  for (const auto& v : vars) {
    if (v.name == "f_elem") {
      EXPECT_EQ(v.cls, core::StorageClass::kStatic);
      EXPECT_GT(v.metrics[core::Metric::kLatency], 0u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Streamcluster, FirstTouchPreservesResultsExactly) {
  StreamclusterParams prm;
  prm.npoints = 6'000;
  prm.dim = 8;
  prm.iters = 1;
  double reference = 0;
  for (const bool fix : {false, true}) {
    StreamclusterParams p = prm;
    p.parallel_first_touch = fix;
    ProcessCtx proc(node_config(), 8, "sc");
    Streamcluster sc(proc, p);
    const RunResult r = sc.run();
    if (!fix) {
      reference = r.checksum;
    } else {
      EXPECT_EQ(r.checksum, reference);
    }
  }
}

TEST(Streamcluster, FirstTouchImprovesSimulatedTime) {
  StreamclusterParams prm;
  prm.npoints = 24'000;
  prm.dim = 16;
  prm.iters = 2;
  sim::Cycles base = 0;
  for (const bool fix : {false, true}) {
    StreamclusterParams p = prm;
    p.parallel_first_touch = fix;
    ProcessCtx proc(node_config(), 16, "sc");
    Streamcluster sc(proc, p);
    const RunResult r = sc.run();
    if (!fix) {
      base = r.sim_cycles;
    } else {
      EXPECT_LT(r.sim_cycles, base);
    }
  }
}

TEST(Streamcluster, BlockDominatesRemoteAccesses) {
  StreamclusterParams prm;
  prm.npoints = 24'000;
  prm.dim = 16;
  prm.iters = 2;
  ProcessCtx proc(node_config(), 16, "sc");
  Streamcluster sc(proc, prm);
  proc.enable_profiling(rmem_config(32));
  sc.run();
  const core::ThreadProfile merged = proc.merged_profile();
  const auto vars = analysis::variable_table(merged, proc.actx(),
                                             core::Metric::kRemoteDram);
  ASSERT_FALSE(vars.empty());
  EXPECT_EQ(vars[0].name, "block");
}

TEST(Nw, InterleavePreservesResultsExactly) {
  NwParams prm;
  prm.n = 192;
  double reference = 0;
  for (const bool fix : {false, true}) {
    NwParams p = prm;
    p.interleave = fix;
    ProcessCtx proc(node_config(), 8, "nw");
    Nw nw(proc, p);
    const RunResult r = nw.run();
    if (!fix) {
      reference = r.checksum;
    } else {
      EXPECT_EQ(r.checksum, reference);
    }
  }
}

TEST(Nw, DpRecurrenceIsCorrectOnTinyInput) {
  // With penalty so large that gaps never win, the DP degenerates to the
  // diagonal accumulation of reference scores — checkable by hand.
  NwParams prm;
  prm.n = 16;
  prm.tile = 4;
  prm.penalty = 1'000'000;
  ProcessCtx proc(node_config(), 2, "nw");
  Nw nw(proc, prm);
  const RunResult r = nw.run();
  // The final cell is finite and deterministic.
  EXPECT_EQ(r.checksum, r.checksum);
  ProcessCtx proc2(node_config(), 4, "nw");  // different thread count
  Nw nw2(proc2, prm);
  EXPECT_EQ(nw2.run().checksum, r.checksum)
      << "wavefront result must not depend on the team size";
}

TEST(Nw, ReferrenceAndItemsetsAreTheHotVariables) {
  NwParams prm;
  prm.n = 512;
  ProcessCtx proc(node_config(), 16, "nw");
  Nw nw(proc, prm);
  proc.enable_profiling(rmem_config(32));
  nw.run();
  const core::ThreadProfile merged = proc.merged_profile();
  const auto vars = analysis::variable_table(merged, proc.actx(),
                                             core::Metric::kRemoteDram);
  ASSERT_GE(vars.size(), 2u);
  std::set<std::string> top{vars[0].name, vars[1].name};
  EXPECT_TRUE(top.count("referrence"));
  EXPECT_TRUE(top.count("input_itemsets"));
}

// Pinned deterministic outputs: the reduced sizes and PMU configs of
// verify::workload_differential, measured by the production profiler.
// Any change to the simulated machine, the PMU, the schedule or the
// profiler that moves a simulated cycle, a checksum bit or a profile
// byte fails here. Update the literals only for an intended change.
struct DetRun {
  sim::Cycles cycles = 0;
  double checksum = 0;
  std::vector<std::uint32_t> profile_crcs;  ///< crc32c of each .dcpf
};

void add_profile_crcs(DetRun& out,
                      const std::vector<core::ThreadProfile>& profiles) {
  for (const auto& p : profiles) {
    std::ostringstream ss;
    p.write(ss);
    out.profile_crcs.push_back(core::crc32c(ss.str()));
  }
}

template <typename Workload, typename Params>
DetRun det_run_single(const char* exe, int threads, const Params& prm,
                      std::vector<pmu::PmuConfig> pmu_cfgs) {
  ProcessCtx proc(node_config(), threads, exe);
  Workload w(proc, prm);
  proc.enable_profiling(std::move(pmu_cfgs));
  const RunResult r = w.run();
  DetRun out;
  out.cycles = r.sim_cycles;
  out.checksum = r.checksum;
  add_profile_crcs(out, proc.take_profiles());
  return out;
}

TEST(DetReference, Amg) {
  const DetRun r =
      det_run_single<Amg>("amg", 16, small_amg(), rmem_config(32));
  EXPECT_EQ(r.cycles, 5773204u);
  EXPECT_EQ(r.checksum, 1406124.4344802103);
  EXPECT_EQ(r.profile_crcs,
            (std::vector<std::uint32_t>{
                2441082381u, 3729969354u, 1165283325u, 14903316u, 540678668u,
                2078574897u, 890695407u, 3190339280u, 657035047u,
                541396639u, 2873829493u, 4177765212u}));
}

TEST(DetReference, Lulesh) {
  LuleshParams prm;
  prm.nelem = 8'000;
  prm.iters = 2;
  const DetRun r = det_run_single<Lulesh>("lulesh", 8, prm, ibs_config(256));
  EXPECT_EQ(r.cycles, 2237483u);
  EXPECT_EQ(r.checksum, 10482.44696872965);
  EXPECT_EQ(r.profile_crcs,
            (std::vector<std::uint32_t>{
                3189324769u, 4134731763u, 1527933081u, 170250465u, 448364785u,
                1938104656u, 2414313538u, 622676695u}));
}

// The profile runs above leave sim::OverrideMap empty; what-if re-runs
// patch it. Pins every prediction of a reduced LULESH, top 3: the re-run
// cycles, the pages its overrides covered, and the ranking.
TEST(DetReference, LuleshWhatIf) {
  LuleshParams prm;
  prm.nelem = 8'000;
  prm.iters = 2;
  ProcessCtx proc(node_config(), 8, "lulesh");
  Lulesh w(proc, prm);
  proc.enable_profiling(ibs_config(256));
  w.run();
  const core::ThreadProfile profile = proc.merged_profile();
  analysis::WhatIfOptions opt;
  opt.top_n = 3;
  WhatIfRunConfig cfg;
  cfg.threads = 8;
  analysis::WhatIfEngine engine(make_lulesh_whatif_runner(prm, cfg), opt);
  const auto preds = engine.analyze(profile, proc.actx());
  EXPECT_EQ(engine.baseline().cycles, 2237483u);
  std::vector<std::string> labels;
  std::vector<sim::Cycles> cycles;
  std::vector<std::uint64_t> pages;
  for (const auto& p : preds) {
    labels.push_back(p.label);
    cycles.push_back(p.cycles);
    pages.push_back(p.pages_patched);
  }
  EXPECT_EQ(labels,
            (std::vector<std::string>{
                "f_elem: promote misses one memory level",
                "nodeElemCornerList: promote misses one memory level",
                "m_z: promote misses one memory level",
                "nodeElemCornerList: make remote accesses local",
                "m_z: make remote accesses local",
                "m_z: interleave pages across nodes",
                "nodeElemCornerList: interleave pages across nodes"}));
  EXPECT_EQ(cycles, (std::vector<sim::Cycles>{1834357u, 2187720u, 2205453u,
                                              2207525u, 2212883u, 2236660u,
                                              2248743u}));
  EXPECT_EQ(pages, (std::vector<std::uint64_t>{375u, 63u, 16u, 63u, 16u, 16u,
                                               63u}));
}

TEST(DetReference, Streamcluster) {
  StreamclusterParams prm;
  prm.npoints = 6'000;
  prm.dim = 8;
  prm.iters = 1;
  const DetRun r =
      det_run_single<Streamcluster>("sc", 8, prm, ibs_config(256));
  EXPECT_EQ(r.cycles, 756760u);
  EXPECT_EQ(r.checksum, 74712.43310344276);
  EXPECT_EQ(r.profile_crcs,
            (std::vector<std::uint32_t>{
                1314961526u, 2466502902u, 85675852u, 3213652570u, 3488101069u,
                145832552u, 2146144690u, 1035694919u}));
}

TEST(DetReference, Nw) {
  NwParams prm;
  prm.n = 400;
  const DetRun r = det_run_single<Nw>("nw", 8, prm, ibs_config(256));
  EXPECT_EQ(r.cycles, 4236562u);
  EXPECT_EQ(r.checksum, 189.0);
  EXPECT_EQ(r.profile_crcs,
            (std::vector<std::uint32_t>{
                2745033563u, 2285653794u, 2821174089u, 3120541512u,
                1711440874u, 1619018950u, 3355413347u, 1162153146u}));
}

TEST(DetReference, Sweep3d) {
  Sweep3dParams prm;
  prm.ranks = 4;
  prm.nx = 8;
  prm.ny = 12;
  prm.nz = 12;
  const auto n = static_cast<std::size_t>(prm.ranks);
  std::vector<RunResult> results(n);
  std::vector<std::vector<core::ThreadProfile>> profiles(n);
  rt::Cluster cluster(prm.ranks, rank_config(), /*threads_per_rank=*/1);
  cluster.run([&](rt::Rank& rank) {
    ProcessCtx proc(rank, "sweep3d");
    proc.enable_profiling(ibs_config(256), {}, rank.id());
    Sweep3dRank w(proc, prm, &rank);
    const auto id = static_cast<std::size_t>(rank.id());
    results[id] = w.run();
    profiles[id] = proc.take_profiles();
  });
  DetRun r;
  for (std::size_t i = 0; i < n; ++i) {
    r.cycles = std::max(r.cycles, results[i].sim_cycles);
    r.checksum += results[i].checksum;
    add_profile_crcs(r, profiles[i]);
  }
  EXPECT_EQ(r.cycles, 21804230u);
  EXPECT_EQ(r.checksum, 35395.051538031577);
  EXPECT_EQ(r.profile_crcs,
            (std::vector<std::uint32_t>{
                457237120u, 759435882u, 2023410454u, 112708791u}));
}

}  // namespace
}  // namespace dcprof::wl
