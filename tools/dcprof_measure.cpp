// dcprof_measure — the measurement CLI (the hpcrun analog): runs one of
// the case-study workloads under the data-centric profiler and writes a
// measurement directory for dcprof_analyze.
//
// Usage:
//   dcprof_measure <amg|lulesh|streamcluster|nw|sweep3d> <out-dir>
//                  [--event ibs|rmem] [--period N] [--threads N]
//                  [--metrics-json <file>] [--trace-out <file>]
//
// The out-dir is created before the workload runs, so an unwritable
// destination fails fast (exit 1) instead of after the simulation;
// usage errors (unknown workload or event, --threads < 1) exit 2.
// --metrics-json enables the self-telemetry registry, dumps its
// snapshot as JSON, and prints the Table-1-style overhead report;
// --trace-out enables the runtime event tracer and writes Chrome
// trace_event JSON (loadable in Perfetto / chrome://tracing). Both are
// written atomically, and an unwritable path exits 1. Every sample is
// taken at the --period given (or the event's default), so the written
// profiles depend only on the workload, team size, event and period.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>

#include "cli.h"
#include "obs/overhead.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "rt/cluster.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/rerun.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

using namespace dcprof;

namespace {

double pct(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                static_cast<double>(total);
}

/// End-of-run effectiveness of the measurement-side caches, summed over
/// every profiler of the run (add() must see each profiler before
/// write_measurements ends its profiling session).
struct CacheStats {
  std::uint64_t memo_reused = 0, memo_walked = 0;
  std::uint64_t mru_hits = 0, mru_misses = 0;

  void add(core::Profiler& prof) {
    const core::ProfilerStats s = prof.stats();
    const core::VarMapStats v = prof.heap_map().stats();
    memo_reused += s.memo_frames_reused;
    memo_walked += s.memo_frames_walked;
    mru_hits += v.mru_hits;
    mru_misses += v.mru_misses;
  }

  /// `scope` ends each line's parenthesis (e.g. ", all ranks").
  void print(const char* scope) const {
    std::printf("attribution memo: %llu frames reused, %llu walked "
                "(%.1f%% hit rate%s)\n",
                static_cast<unsigned long long>(memo_reused),
                static_cast<unsigned long long>(memo_walked),
                pct(memo_reused, memo_walked), scope);
    std::printf("var-map MRU: %llu hits, %llu tree probes "
                "(%.1f%% hit rate%s)\n",
                static_cast<unsigned long long>(mru_hits),
                static_cast<unsigned long long>(mru_misses),
                pct(mru_hits, mru_misses), scope);
  }
};

int measure(int argc, char** argv) {
  std::string workload;
  std::string dir;
  std::string event = "ibs";
  std::uint64_t period = 0;
  int threads = 16;
  std::string metrics_json;
  std::string trace_out;

  cli::Parser p("dcprof_measure",
                "runs a case-study workload under the data-centric "
                "profiler and writes a measurement directory");
  p.positional("workload", &workload, "amg|lulesh|streamcluster|nw|sweep3d");
  p.positional("out-dir", &dir, "measurement directory to write");
  p.option("--event", &event, "sampled PMU event", "ibs|rmem");
  p.option("--period", &period, "sampling period (0 = event default)");
  p.option("--threads", &threads, "team size for threaded workloads");
  p.option("--metrics-json", &metrics_json,
           "enable self-telemetry; write the snapshot JSON here", "FILE");
  p.option("--trace-out", &trace_out,
           "enable event tracing; write Chrome trace JSON here", "FILE");
  if (const auto rc = p.parse(argc, argv)) return *rc;
  if (threads < 1) return p.error("--threads must be >= 1");
  if (!wl::whatif_workload_known(workload)) {
    return p.error("unknown workload: " + workload);
  }
  std::vector<pmu::PmuConfig> pmu_cfg;
  if (event == "ibs") {
    pmu_cfg = wl::ibs_config(period != 0 ? period : 1024);
  } else if (event == "rmem") {
    pmu_cfg = wl::rmem_config(period != 0 ? period : 64);
  } else {
    return p.error("unknown event: " + event);
  }
  std::filesystem::create_directories(dir);

  if (!metrics_json.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::Tracer::set_enabled(true);
  const auto t_run0 = std::chrono::steady_clock::now();
  // Dumps metrics / overhead report / trace after the measured section.
  const auto dump_telemetry = [&](const std::string& name) {
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t_run0)
            .count();
    if (!metrics_json.empty()) {
      const obs::Snapshot snap = obs::Registry::global().snapshot();
      if (!cli::export_file(metrics_json, obs::to_json(snap),
                            "metrics snapshot")) {
        return 1;
      }
      std::printf("%s", obs::account_overhead(snap, wall_ms)
                            .to_table(name)
                            .c_str());
    }
    if (!trace_out.empty()) {
      std::ostringstream trace;
      obs::Tracer::global().write_json(trace);
      if (!cli::export_file(trace_out, trace.str(),
                            "event trace (open in Perfetto)")) {
        return 1;
      }
    }
    return 0;
  };

  // Sweep3D is pure MPI: run the cluster, each rank writing its own
  // per-thread profiles (plus the shared structure file) into the dir.
  if (workload == "sweep3d") {
    rt::Cluster cluster(8, wl::rank_config(), 1);
    wl::Sweep3dParams prm;
    std::mutex mu;
    std::uint64_t bytes = 0;
    CacheStats cache;
    cluster.run([&](rt::Rank& rank) {
      wl::ProcessCtx proc(rank, "sweep3d");
      proc.enable_profiling(pmu_cfg, {}, rank.id());
      wl::Sweep3dRank w(proc, prm, &rank);
      w.run();
      std::lock_guard lock(mu);
      cache.add(*proc.profiler());
      bytes += proc.write_measurements(dir);
    });
    std::printf("sweep3d: wrote %llu bytes of measurement data (8 ranks) "
                "to %s\n",
                static_cast<unsigned long long>(bytes), dir.c_str());
    cache.print(", all ranks");
    std::printf("analyze with: dcprof_analyze %s --metric %s\n",
                dir.c_str(), event == "ibs" ? "latency" : "rdram");
    return dump_telemetry("sweep3d");
  }

  wl::ProcessCtx proc(wl::node_config(), threads, workload);
  wl::RunResult result;
  if (workload == "amg") {
    wl::Amg w(proc, wl::AmgParams{});
    proc.enable_profiling(pmu_cfg);
    result = w.run();
  } else if (workload == "lulesh") {
    wl::Lulesh w(proc, wl::LuleshParams{});
    proc.enable_profiling(pmu_cfg);
    result = w.run();
  } else if (workload == "streamcluster") {
    wl::Streamcluster w(proc, wl::StreamclusterParams{});
    proc.enable_profiling(pmu_cfg);
    result = w.run();
  } else {  // nw
    wl::Nw w(proc, wl::NwParams{});
    proc.enable_profiling(pmu_cfg);
    result = w.run();
  }

  CacheStats cache;
  cache.add(*proc.profiler());
  cache.print("");
  const std::uint64_t bytes = proc.write_measurements(dir);
  std::printf("%s: %llu simulated cycles, checksum %.6g\n",
              workload.c_str(),
              static_cast<unsigned long long>(result.sim_cycles),
              result.checksum);
  std::printf("wrote %llu bytes of measurement data to %s\n",
              static_cast<unsigned long long>(bytes), dir.c_str());
  std::printf("analyze with: dcprof_analyze %s --metric %s --advice\n",
              dir.c_str(), event == "ibs" ? "latency" : "rdram");
  return dump_telemetry(workload);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return measure(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
