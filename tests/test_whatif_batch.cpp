// The batched what-if path against its reference: one simulation timing
// every spec through its own machine variant must predict exactly what a
// separate re-execution per spec predicts — cycles, pages patched and
// checksum — on every threaded case study, for single fixes of each kind
// and for composites.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/whatif.h"
#include "obs/registry.h"
#include "workloads/rerun.h"

namespace dcprof::wl {
namespace {

using analysis::WhatIfFix;
using analysis::WhatIfRun;
using analysis::WhatIfSpec;

/// Everything one case study needs: its measured profile's top
/// candidates and both runners, all at a reduced size.
struct Subject {
  std::vector<analysis::WhatIfCandidate> candidates;
  analysis::WhatIfRunner per_spec;
  analysis::WhatIfBatchRunner batch;
};

constexpr int kThreads = 8;

template <typename Workload, typename Params>
Subject subject(const char* exe, const Params& prm,
                analysis::WhatIfRunner per_spec,
                analysis::WhatIfBatchRunner batch) {
  ProcessCtx proc(node_config(), kThreads, exe);
  Workload w(proc, prm);
  proc.enable_profiling(ibs_config(256));
  w.run();
  const core::ThreadProfile profile = proc.merged_profile();
  analysis::WhatIfOptions opt;
  opt.top_n = 5;
  opt.min_share = 0;
  Subject s;
  s.candidates =
      analysis::WhatIfEngine(per_spec, opt).candidates(profile, proc.actx());
  s.per_spec = std::move(per_spec);
  s.batch = std::move(batch);
  return s;
}

Subject make_subject(const std::string& workload) {
  WhatIfRunConfig cfg;
  cfg.threads = kThreads;
  if (workload == "amg") {
    AmgParams prm;
    prm.rows = 12'000;
    prm.iters = 2;
    prm.small_allocs = 100;
    prm.workspace_doubles = 20'000;
    prm.symbolic_cycles_per_row = 10;
    return subject<Amg>("amg", prm, make_amg_whatif_runner(prm, cfg),
                        make_amg_whatif_batch_runner(prm, cfg));
  }
  if (workload == "lulesh") {
    LuleshParams prm;
    prm.nelem = 8'000;
    prm.iters = 2;
    return subject<Lulesh>("lulesh", prm, make_lulesh_whatif_runner(prm, cfg),
                           make_lulesh_whatif_batch_runner(prm, cfg));
  }
  if (workload == "streamcluster") {
    StreamclusterParams prm;
    prm.npoints = 6'000;
    prm.dim = 8;
    prm.iters = 1;
    return subject<Streamcluster>(
        "streamcluster", prm, make_streamcluster_whatif_runner(prm, cfg),
        make_streamcluster_whatif_batch_runner(prm, cfg));
  }
  NwParams prm;
  prm.n = 400;
  return subject<Nw>("nw", prm, make_nw_whatif_runner(prm, cfg),
                     make_nw_whatif_batch_runner(prm, cfg));
}

class WhatIfBatch : public ::testing::TestWithParam<std::string> {};

TEST_P(WhatIfBatch, MatchesPerSpecReRuns) {
  const Subject s = make_subject(GetParam());
  ASSERT_GE(s.candidates.size(), 2u);

  // The baseline, every candidate under every fix, and two composites:
  // every candidate interleaved with the first also promoted, and the
  // first promoted with the second localized.
  std::vector<WhatIfSpec> specs(1);
  for (const auto& c : s.candidates) {
    for (const WhatIfFix fix :
         {WhatIfFix::kLocal, WhatIfFix::kInterleave, WhatIfFix::kPromote}) {
      specs.push_back(WhatIfSpec{{{c.target, fix}}});
    }
  }
  WhatIfSpec interleave_all;
  for (const auto& c : s.candidates) {
    interleave_all.actions.push_back({c.target, WhatIfFix::kInterleave});
  }
  interleave_all.actions.push_back(
      {s.candidates[0].target, WhatIfFix::kPromote});
  specs.push_back(interleave_all);
  specs.push_back(WhatIfSpec{{{s.candidates[0].target, WhatIfFix::kPromote},
                              {s.candidates[1].target, WhatIfFix::kLocal}}});

  const std::vector<WhatIfRun> batched = s.batch(specs);
  ASSERT_EQ(batched.size(), specs.size());
  std::size_t attached = 0;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const WhatIfRun want = s.per_spec(specs[i]);
    SCOPED_TRACE("spec " + std::to_string(i));
    EXPECT_EQ(batched[i].cycles, want.cycles);
    EXPECT_EQ(batched[i].pages_patched, want.pages_patched);
    EXPECT_EQ(batched[i].checksum, want.checksum);
    attached += want.pages_patched > 0 ? 1 : 0;
    moved += want.cycles != batched[0].cycles ? 1 : 0;
  }
  // The fixes must attach and change the timing, or equality says little.
  EXPECT_GE(attached, specs.size() - 1 - s.candidates.size());
  EXPECT_GE(moved, s.candidates.size());
}

// A machine gives at most 64 variants a TLB (one bit of a TLB entry's
// masks each), so a batch with 65 TLB owners takes two simulations, says
// so in whatif.simulations, and still equals the per-spec re-runs.
TEST(WhatIfBatch, MoreTlbOwnersThanOneMaskWord) {
  const Subject s = make_subject("lulesh");
  ASSERT_GE(s.candidates.size(), 1u);
  const WhatIfSpec promote{{{s.candidates[0].target, WhatIfFix::kPromote}}};
  std::vector<WhatIfSpec> specs(1);
  specs.insert(specs.end(), 65, promote);
  obs::Registry& reg = obs::Registry::global();
  const std::uint64_t sims = reg.snapshot().value("whatif.simulations");
  const std::vector<WhatIfRun> batched = s.batch(specs);
  EXPECT_EQ(reg.snapshot().value("whatif.simulations") - sims, 2u);
  ASSERT_EQ(batched.size(), specs.size());
  const WhatIfRun baseline = s.per_spec(specs[0]);
  const WhatIfRun want = s.per_spec(promote);
  EXPECT_NE(want.cycles, baseline.cycles);
  EXPECT_GT(want.pages_patched, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    const WhatIfRun& w = i == 0 ? baseline : want;
    EXPECT_EQ(batched[i].cycles, w.cycles);
    EXPECT_EQ(batched[i].pages_patched, w.pages_patched);
    EXPECT_EQ(batched[i].checksum, w.checksum);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WhatIfBatch,
                         ::testing::Values("amg", "lulesh", "streamcluster",
                                           "nw"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dcprof::wl
