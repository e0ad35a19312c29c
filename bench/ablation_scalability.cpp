// Reproduces the Section 2.2 / 4.2 scalability arguments:
//  (a) compact CCT profiles stay near-constant in size as execution
//      length grows, while an access/allocation *trace* (what MemProf
//      keeps) grows linearly — the paper's space argument;
//  (b) the reduction-tree merge of per-thread profiles scales linearly
//      in the number of threads/processes merged.
#include <chrono>
#include <cstdio>
#include <filesystem>

#include "analysis/merge.h"
#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "core/measurement.h"
#include "core/trace.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"

using namespace dcprof;

namespace {

/// Runs LULESH with the MemProf-style trace recorder attached (the
/// implemented comparison baseline) and returns the trace size.
std::uint64_t traced_bytes(const wl::LuleshParams& prm) {
  wl::ProcessCtx proc(wl::node_config(), 16, "lulesh");
  wl::Lulesh lulesh(proc, prm);
  pmu::PmuSet pmu(proc.machine().config(), wl::ibs_config(1024));
  core::TraceRecorder trace;
  trace.attach(pmu);
  trace.attach(proc.alloc());
  proc.machine().set_observer(&pmu);
  lulesh.run();
  proc.machine().set_observer(nullptr);
  return trace.serialized_bytes();
}

}  // namespace

int main() {
  std::printf("Ablation A2a: profile size vs. trace size as execution "
              "grows\n\n");
  analysis::Table growth({"timesteps", "samples", "allocations",
                          "CCT profile bytes", "trace bytes",
                          "trace/profile"});
  for (int iters : {2, 4, 8, 16}) {
    wl::LuleshParams prm;
    prm.iters = iters;
    wl::ProcessCtx proc(wl::node_config(), 16, "lulesh");
    wl::Lulesh lulesh(proc, prm);
    proc.enable_profiling(wl::ibs_config(1024));
    lulesh.run();
    const auto& tracker = proc.profiler()->tracker_stats();
    const std::uint64_t allocs = tracker.allocations_seen;
    auto profiles = proc.take_profiles();
    std::uint64_t samples = 0;
    std::uint64_t bytes = 0;
    for (const auto& p : profiles) {
      samples += p.total_samples();
      bytes += p.serialize().size();
    }
    // The same run recorded by the implemented MemProf-style tracer.
    const std::uint64_t trace = traced_bytes(prm);
    char ratio[32];
    std::snprintf(ratio, sizeof ratio, "%.1fx",
                  bytes > 0 ? static_cast<double>(trace) /
                                  static_cast<double>(bytes)
                            : 0.0);
    growth.add_row({std::to_string(iters), analysis::format_count(samples),
                    analysis::format_count(allocs),
                    analysis::format_count(bytes),
                    analysis::format_count(trace), ratio});
  }
  std::printf("%s\n", growth.render().c_str());
  std::printf("(CCT profiles coalesce repeated contexts: their size "
              "saturates while traces grow linearly)\n\n");

  std::printf("Ablation A2b: reduction-tree merge cost vs. profile "
              "count\n\n");
  // One real per-thread profile set, replicated to larger counts.
  wl::LuleshParams prm;
  prm.iters = 3;
  wl::ProcessCtx proc(wl::node_config(), 16, "lulesh");
  wl::Lulesh lulesh(proc, prm);
  proc.enable_profiling(wl::ibs_config(512));
  lulesh.run();
  const auto base_profiles = proc.take_profiles();

  analysis::Table merge_table({"profiles merged", "merge time (ms)",
                               "ms/profile", "merged CCT nodes"});
  for (std::size_t count : {16, 32, 64, 128, 256}) {
    std::vector<core::ThreadProfile> inputs;
    inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      inputs.push_back(base_profiles[i % base_profiles.size()]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    core::ThreadProfile merged = analysis::reduce(std::move(inputs));
    const double ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    std::size_t nodes = 0;
    for (const auto& cct : merged.ccts) nodes += cct.size();
    char msbuf[32];
    char per[32];
    std::snprintf(msbuf, sizeof msbuf, "%.2f", ms);
    std::snprintf(per, sizeof per, "%.3f", ms / static_cast<double>(count));
    merge_table.add_row({std::to_string(count), msbuf, per,
                         analysis::format_count(nodes)});
  }
  std::printf("%s\n", merge_table.render().c_str());
  std::printf("(merge cost grows linearly with the number of profiles; "
              "the merged result stays compact)\n\n");

  std::printf("Ablation A2c: streaming pipeline vs. load-all analysis\n\n");
  // The same replicated profile set, written to disk and analyzed two
  // ways: a load-all read (every profile materialized via
  // list_profile_files + read_profile_file, then reduce; peak residency
  // = N) versus the Analyzer, which folds profiles into one aggregate
  // as its read-ahead threads hand them over (peak residency 1, plus at
  // most the read-ahead's window of shard images).
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dcprof-ablation-a2c";
  analysis::Table stream_table({"profiles", "mode", "wall (ms)",
                                "peak resident profiles",
                                "peak resident images"});
  for (std::size_t count : {64, 128}) {
    std::vector<core::ThreadProfile> inputs;
    inputs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      core::ThreadProfile p = base_profiles[i % base_profiles.size()];
      p.rank = static_cast<std::int32_t>(i / 16);
      p.tid = static_cast<std::int32_t>(i % 16);
      inputs.push_back(std::move(p));
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    binfmt::ModuleRegistry no_modules;
    core::write_measurement_dir(dir, inputs,
                                binfmt::StructureData::capture(no_modules));

    const auto t_load = std::chrono::steady_clock::now();
    std::vector<core::ThreadProfile> loaded_profiles;
    for (const auto& path : core::list_profile_files(dir)) {
      loaded_profiles.push_back(core::read_profile_file(path));
    }
    const std::size_t loaded = loaded_profiles.size();
    core::ThreadProfile all = analysis::reduce(std::move(loaded_profiles));
    const double load_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t_load)
                               .count();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", load_ms);
    stream_table.add_row({std::to_string(count), "load-all + reduce", buf,
                          std::to_string(loaded), "-"});

    for (const int workers : {1, 4}) {
      analysis::Analyzer::Options opts;
      opts.workers = workers;
      opts.views = analysis::kViewNone;
      const auto t_stream = std::chrono::steady_clock::now();
      const analysis::AnalysisResult r = analysis::Analyzer(opts).run(dir);
      const double stream_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t_stream)
              .count();
      if (r.merged.total_samples() != all.total_samples()) {
        std::printf("MISMATCH: streaming result differs from load-all!\n");
      }
      std::snprintf(buf, sizeof buf, "%.2f", stream_ms);
      stream_table.add_row(
          {std::to_string(count),
           "streaming, " + std::to_string(workers) + " worker(s)", buf,
           std::to_string(r.peak_resident_profiles),
           std::to_string(r.peak_resident_images)});
    }
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
  std::printf("%s\n", stream_table.render().c_str());
  std::printf("(the streaming pipeline merges each profile as it is "
              "read: peak residency stays at one profile, plus a few "
              "shard images per read-ahead thread, instead of growing "
              "with the directory, so analysis memory no longer scales "
              "with rank x thread count)\n");
  return 0;
}
