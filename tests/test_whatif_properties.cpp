// Property tests for the causal what-if engine: no realizable placement
// fix may beat the zero-latency oracle, and a fix that changes nothing
// (localizing a variable that is already local) predicts exactly 1.0x.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/whatif.h"
#include "sim/override.h"
#include "support/rng.h"
#include "workloads/rerun.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

namespace dcprof::analysis {
namespace {

/// Re-runs streamcluster with one raw override entry installed on every
/// allocation annotated `var` — the tests' back door for entries the
/// public WhatIfFix set does not expose (the kZero oracle).
sim::Cycles run_streamcluster_with_entry(const wl::StreamclusterParams& prm,
                                         int threads, const std::string& var,
                                         sim::OverrideEntry entry) {
  wl::ProcessCtx proc(wl::node_config(), threads, "streamcluster");
  rt::AllocHooks hooks;
  wl::ProcessCtx* pp = &proc;
  hooks.on_alloc = [pp, var, entry](rt::ThreadCtx&, sim::Addr base,
                                    std::uint64_t size, sim::Addr ip) {
    const auto it = pp->alloc_names().find(ip);
    if (it != pp->alloc_names().end() && it->second == var) {
      pp->machine().memory().add_override(sim::MemorySystem::kPrimary, base,
                                          size, entry);
    }
  };
  proc.alloc().set_hooks(std::move(hooks));
  wl::Streamcluster w(proc, prm);
  return w.run().sim_cycles;
}

TEST(WhatIfProperty, PlacementFixNeverBeatsZeroLatencyOracle) {
  for (const std::uint64_t seed : {1u, 2u}) {
    SCOPED_TRACE(test::seed_note(seed));
    test::Rng rng(seed);
    wl::StreamclusterParams prm;
    prm.npoints = 12'000 + static_cast<std::int64_t>(rng.next(8'000));
    prm.dim = 8 + static_cast<int>(rng.next(9));
    prm.iters = 2;
    const int threads = 8;
    wl::WhatIfRunConfig cfg;
    cfg.threads = threads;
    WhatIfEngine engine(wl::make_streamcluster_whatif_runner(prm, cfg));

    // `block` is the master-calloc'd point array — remote-heavy, so the
    // placement fixes are meaningful. Its heap target is the annotated
    // allocation IP, recovered from a structure-only instance.
    WhatIfTarget block;
    block.name = "block";
    block.cls = core::StorageClass::kHeap;
    {
      wl::ProcessCtx proc(wl::node_config(), threads, "streamcluster");
      wl::Streamcluster w(proc, prm);
      for (const auto& [ip, name] : proc.alloc_names()) {
        if (name == "block") block.alloc_ip = ip;
      }
    }
    ASSERT_NE(block.alloc_ip, 0u);

    sim::OverrideEntry zero;
    zero.latency = sim::LatencyOverride::kZero;
    const sim::Cycles zero_cycles =
        run_streamcluster_with_entry(prm, threads, "block", zero);
    const double ceiling = static_cast<double>(engine.baseline().cycles) /
                           static_cast<double>(zero_cycles);

    for (const WhatIfFix fix : {WhatIfFix::kLocal, WhatIfFix::kInterleave}) {
      WhatIfSpec spec;
      spec.actions.push_back({block, fix});
      const WhatIfPrediction p = engine.evaluate(spec, to_string(fix));
      EXPECT_GT(p.pages_patched, 0u) << to_string(fix);
      EXPECT_LE(p.speedup, ceiling + 1e-9)
          << to_string(fix) << " beat the zero-latency oracle ("
          << p.speedup << "x > " << ceiling << "x)";
    }
    EXPECT_GE(ceiling, 1.0);
  }
}

TEST(WhatIfProperty, LocalizingAnAlreadyLocalVariablePredictsExactlyOne) {
  // A single-rank sweep has one NUMA node: every page is already local,
  // so the kLocal placement patch must be a perfect no-op — not merely
  // close to 1.0x, but the byte-identical simulated cycle count.
  wl::Sweep3dParams prm;
  prm.ranks = 1;
  prm.nx = 16;
  prm.ny = 40;
  prm.nz = 40;
  prm.compute_per_cell = 20;
  WhatIfEngine engine(wl::make_sweep3d_whatif_runner(prm));

  WhatIfTarget flux;
  flux.name = "Flux";
  flux.cls = core::StorageClass::kHeap;
  {
    wl::ProcessCtx proc(wl::rank_config(), 1, "sweep3d");
    wl::Sweep3dRank rank(proc, prm, nullptr);
    flux.alloc_ip = rank.ip_alloc_flux();
  }
  WhatIfSpec spec;
  spec.actions.push_back({flux, WhatIfFix::kLocal});
  const WhatIfPrediction p = engine.evaluate(spec, "Flux: local");
  EXPECT_GT(p.pages_patched, 0u);
  EXPECT_EQ(p.cycles, p.baseline_cycles);
  EXPECT_DOUBLE_EQ(p.speedup, 1.0);
  EXPECT_DOUBLE_EQ(p.gain, 0.0);
}

TEST(WhatIfProperty, PromoteIsDeterministicAcrossRepeatedRuns) {
  wl::Sweep3dParams prm;
  prm.ranks = 1;
  prm.nx = 16;
  prm.ny = 40;
  prm.nz = 40;
  prm.compute_per_cell = 20;
  WhatIfTarget flux;
  flux.name = "Flux";
  flux.cls = core::StorageClass::kHeap;
  {
    wl::ProcessCtx proc(wl::rank_config(), 1, "sweep3d");
    wl::Sweep3dRank rank(proc, prm, nullptr);
    flux.alloc_ip = rank.ip_alloc_flux();
  }
  WhatIfSpec spec;
  spec.actions.push_back({flux, WhatIfFix::kPromote});
  WhatIfEngine a(wl::make_sweep3d_whatif_runner(prm));
  WhatIfEngine b(wl::make_sweep3d_whatif_runner(prm));
  const WhatIfPrediction pa = a.evaluate(spec);
  const WhatIfPrediction pb = b.evaluate(spec);
  EXPECT_EQ(pa.cycles, pb.cycles);
  EXPECT_EQ(pa.baseline_cycles, pb.baseline_cycles);
  EXPECT_GT(pa.speedup, 1.0);
}

}  // namespace
}  // namespace dcprof::analysis
