// Hybrid MPI+OpenMP profiling: each rank runs its own profiler against
// its own machine; per-rank profiles are serialized (the measurement ->
// analysis handoff) and then reduced across ranks exactly as
// HPCToolkit's MPI-based post-mortem analyzer does.

#include <cstdio>
#include <mutex>

#include "analysis/merge.h"
#include "analysis/report.h"
#include "analysis/views.h"
#include "rt/cluster.h"
#include "workloads/amg.h"

using namespace dcprof;

int main() {
  constexpr int kRanks = 2;
  constexpr int kThreadsPerRank = 16;

  rt::Cluster cluster(kRanks, wl::node_config(), kThreadsPerRank);
  std::vector<std::string> serialized(kRanks);
  std::vector<std::uint64_t> rank_samples(kRanks, 0);
  std::mutex mu;

  cluster.run([&](rt::Rank& rank) {
    wl::ProcessCtx proc(rank, "amg2006");
    proc.enable_profiling(wl::rmem_config(128), {}, rank.id());
    wl::AmgParams prm;
    prm.rows = 50'000;
    wl::Amg amg(proc, prm, &rank);
    amg.run();

    // Each rank writes its merged per-process profile to "disk".
    core::ThreadProfile profile = proc.merged_profile();
    std::string out = profile.serialize();
    std::lock_guard lock(mu);
    rank_samples[static_cast<std::size_t>(rank.id())] =
        profile.total_samples();
    serialized[static_cast<std::size_t>(rank.id())] = std::move(out);
  });

  // Post-mortem: load every rank's profile and reduce.
  std::vector<core::ThreadProfile> profiles;
  std::uint64_t bytes = 0;
  for (const auto& blob : serialized) {
    bytes += blob.size();
    profiles.push_back(core::ThreadProfile::read(blob));
  }
  core::ThreadProfile global = analysis::reduce(std::move(profiles));

  std::printf("== hybrid MPI+OpenMP profiling ==\n\n");
  for (int r = 0; r < kRanks; ++r) {
    std::printf("rank %d: %s samples\n", r,
                analysis::format_count(rank_samples[r]).c_str());
  }
  std::printf("serialized profiles: %s bytes total\n",
              analysis::format_count(bytes).c_str());
  std::printf("global profile: %s samples (rank field = %d)\n\n",
              analysis::format_count(global.total_samples()).c_str(),
              global.rank);

  // The global data-centric view. For label resolution, rebuild the code
  // structure in a scratch process (every rank lays its module out at
  // identical addresses, so IPs align across ranks).
  wl::ProcessCtx labels(wl::node_config(), 1, "amg2006");
  wl::AmgParams prm;
  prm.rows = 50'000;
  wl::Amg structure(labels, prm);
  const auto vars = analysis::variable_table(global, labels.actx(),
                                             core::Metric::kRemoteDram);
  std::printf("%s\n",
              analysis::render_variables(vars, analysis::summarize(global),
                                         core::Metric::kRemoteDram, 8)
                  .c_str());
  return 0;
}
