// dcprof_analyze — the post-mortem analyzer CLI (the hpcprof analog).
//
// Usage:
//   dcprof_analyze <measurement-dir> [--metric samples|latency|rdram]
//                  [--workers N] [--top N]
//                  [--top-down heap|static|stack|unknown] [--advice]
//                  [--html <file>] [--policy strict|skip|quarantine]
//                  [--salvage]
//                  [--metrics-json <file>] [--trace-out <file>]
//                  [--dot-out <file>] [--folded-out <file>]
//                  [--export-var <name>] [--progress] [--overhead]
//                  [--whatif <workload>] [--whatif-top N]
//
// --dot-out renders the merged CCTs as a Graphviz digraph; --folded-out
// writes folded-stack flamegraph text (flamegraph.pl / speedscope
// input); --export-var restricts both exports to one variable's
// subtrees. --trace-out records the pipeline's own execution (one span
// per stage and per fold, one track per read-ahead thread) as Chrome
// trace_event JSON for Perfetto; --metrics-json dumps the self-telemetry registry;
// --progress prints a heartbeat line as profiles are folded;
// --overhead prints the analyzer's self-overhead report (kViewOverhead).
// --whatif re-runs the named workload, with the team size of the
// measurement's rank 0, to predict each top variable's fix payoff
// exactly; one simulation answers every fix (stderr says how many).
// Every exported file is written atomically (tmp + fsync + rename) and
// an unwritable path is a hard error.
//
// Streams a measurement directory (per-thread profile files + a
// structure file) through the analysis::Analyzer pipeline — --workers
// host threads (default: one per hardware thread), all but one reading
// and checking shards ahead while the last merges them as they arrive,
// in listing order, so memory stays one aggregate plus a bounded window
// of shard images —
// and prints the storage-class summary, the data-centric variable view,
// the hot-access view, the code-centric flat view, the memory-level /
// reuse-distance / stride views (v4 profiles), and (with --advice)
// optimization guidance. Corrupt profile files are skipped and counted
// by default (--policy skip); --policy strict aborts on the first one,
// --policy quarantine also moves them into <dir>/quarantine/, and
// --salvage folds each corrupt file's valid record prefix into the merge
// (recovery mode).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/export.h"
#include "analysis/html_report.h"
#include "cli.h"
#include "analysis/pipeline.h"
#include "analysis/report.h"
#include "analysis/views.h"
#include "analysis/whatif.h"
#include "core/profile.h"
#include "obs/registry.h"
#include "obs/tracer.h"
#include "workloads/rerun.h"

using namespace dcprof;

namespace {

/// The team size of the measurement's rank 0 — N when its thread
/// profiles carry exactly the tids 0..N-1 — or nullopt.
std::optional<int> measured_team_size(
    const std::vector<analysis::ThreadRow>& threads) {
  std::vector<std::int32_t> tids;
  for (const auto& t : threads) {
    if (t.rank == 0) tids.push_back(t.tid);
  }
  std::sort(tids.begin(), tids.end());
  for (std::size_t i = 0; i < tids.size(); ++i) {
    if (tids[i] != static_cast<std::int32_t>(i)) return std::nullopt;
  }
  if (tids.empty()) return std::nullopt;
  return static_cast<int>(tids.size());
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string metric_name = "latency";
  int workers = 0;
  int top_n = 0;
  std::string top_down_class;
  bool advice = false;
  std::string policy = "skip";
  bool salvage = false;
  bool progress = false;
  bool overhead = false;
  std::string html_path;
  std::string metrics_json;
  std::string trace_out;
  std::string dot_out;
  std::string folded_out;
  std::string export_var;
  std::string whatif_workload;
  int whatif_top = 3;

  cli::Parser p("dcprof_analyze",
                "streams a measurement directory through the analysis "
                "pipeline and prints the data-centric views");
  p.positional("measurement-dir", &dir, "directory written by dcprof_measure");
  p.option("--metric", &metric_name, "metric to sort views by",
           "samples|latency|rdram");
  p.option("--workers", &workers,
           "stream-stage host threads, the folding thread included; the "
           "rest (at most 16) read and check shards ahead, 4 images each "
           "(default: one per hardware thread)");
  p.option("--top", &top_n, "rows per view");
  p.option("--top-down", &top_down_class, "also print a top-down CCT view",
           "heap|static|stack|unknown");
  p.flag("--advice", &advice, "print optimization guidance");
  p.option("--html", &html_path, "write an HTML report here", "FILE");
  p.option("--policy", &policy, "corrupt-profile policy",
           "strict|skip|quarantine");
  p.flag("--salvage", &salvage,
         "fold corrupt files' valid record prefixes into the merge");
  p.flag("--progress", &progress, "print a heartbeat as profiles fold");
  p.flag("--overhead", &overhead, "print the analyzer self-overhead report");
  p.option("--metrics-json", &metrics_json,
           "enable self-telemetry; write the snapshot JSON here", "FILE");
  p.option("--trace-out", &trace_out,
           "enable pipeline tracing; write Chrome trace JSON here", "FILE");
  p.option("--dot-out", &dot_out, "write the merged CCTs as Graphviz dot",
           "FILE");
  p.option("--folded-out", &folded_out,
           "write folded-stack flamegraph text", "FILE");
  p.option("--export-var", &export_var,
           "restrict --dot-out/--folded-out to one variable", "NAME");
  p.option("--whatif", &whatif_workload,
           "predict exact fix payoffs by re-running this workload with "
           "the measurement's team size (the structure file carries no "
           "executable name, so it must be named explicitly)",
           wl::whatif_workload_names());
  p.option("--whatif-top", &whatif_top,
           "candidate variables the what-if engine evaluates");
  if (const auto rc = p.parse(argc, argv)) return *rc;

  analysis::Analyzer::Options opts;
  if (metric_name == "samples") {
    opts.sort_metric = core::Metric::kSamples;
  } else if (metric_name == "latency") {
    opts.sort_metric = core::Metric::kLatency;
  } else if (metric_name == "rdram") {
    opts.sort_metric = core::Metric::kRemoteDram;
  } else {
    return p.error("unknown metric: " + metric_name);
  }
  if (p.seen("--workers")) {
    if (workers < 1) return p.error("--workers must be >= 1");
    opts.workers = workers;
  }
  if (top_n > 0) opts.top_n = static_cast<std::size_t>(top_n);
  // --whatif exists to attach exact predictions to the guidance, so it
  // implies the advice view; the thread view gives it the team size.
  if (advice || !whatif_workload.empty()) {
    opts.add_views(analysis::kViewAdvice);
  }
  if (!whatif_workload.empty()) opts.add_views(analysis::kViewThreads);
  if (overhead) opts.add_views(analysis::kViewOverhead);
  if (const auto parsed = analysis::parse_corrupt_policy(policy)) {
    opts.corrupt_policy = *parsed;
  } else {
    return p.error("unknown --policy '" + policy + "'");
  }
  opts.salvage = salvage;
  if (progress) {
    opts.progress = [](std::size_t done, std::size_t total) {
      std::fprintf(stderr, "progress: %zu/%zu profiles folded\n", done,
                   total);
    };
  }
  if (!top_down_class.empty() && top_down_class != "heap" &&
      top_down_class != "static" && top_down_class != "stack" &&
      top_down_class != "unknown") {
    return p.error("unknown --top-down class: " + top_down_class);
  }
  if (!whatif_workload.empty() &&
      !wl::whatif_workload_known(whatif_workload)) {
    return p.error("unknown --whatif workload: " + whatif_workload +
                   " (expected " + wl::whatif_workload_names() + ")");
  }
  if (whatif_top < 1) return p.error("--whatif-top must be >= 1");
  const core::Metric metric = opts.sort_metric;
  if (!metrics_json.empty()) obs::set_metrics_enabled(true);
  if (!trace_out.empty()) obs::Tracer::set_enabled(true);

  analysis::AnalysisResult r;
  try {
    r = analysis::Analyzer(opts).run(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf(
      "streamed %zu profiles (%s bytes) from %s with %d worker%s\n",
      r.files_read, analysis::format_count(r.bytes_streamed).c_str(),
      dir.c_str(), r.workers_used, r.workers_used == 1 ? "" : "s");
  std::printf(
      "merged: %s samples; peak resident profiles %zu, images %zu; "
      "discover/stream/merge %.1f/%.1f/%.1f ms\n",
      analysis::format_count(r.merged.total_samples()).c_str(),
      r.peak_resident_profiles, r.peak_resident_images,
      r.timings.discover_ms, r.timings.stream_ms, r.merge_ms);
  if (r.transient_retries > 0) {
    std::printf("recovered %zu file(s) on re-read (transient I/O)\n",
                r.transient_retries);
  }
  if (r.files_skipped > 0) {
    std::printf("skipped %zu profile file(s):\n", r.files_skipped);
    for (const auto& s : r.skipped) std::printf("  %s\n", s.c_str());
  }
  if (r.files_salvaged > 0) {
    std::printf("salvaged %zu record(s) from %zu corrupt file(s), "
                "%zu dropped:\n",
                r.records_salvaged, r.files_salvaged, r.records_dropped);
    for (const auto& s : r.salvaged) std::printf("  %s\n", s.c_str());
  }
  if (r.files_quarantined > 0) {
    std::printf("quarantined %zu file(s):\n", r.files_quarantined);
    for (const auto& s : r.quarantined) std::printf("  %s\n", s.c_str());
  }
  std::printf("\n");

  const analysis::AnalysisContext ctx = r.context();

  analysis::Table classes({"storage class", to_string(metric), "share"});
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    const auto cls = static_cast<core::StorageClass>(c);
    classes.add_row(
        {to_string(cls),
         analysis::format_count(r.summary.per_class[c][metric]),
         analysis::format_percent(r.summary.fraction(cls, metric))});
  }
  std::printf("%s\n", classes.render().c_str());

  std::printf("%s\n",
              analysis::render_variables(r.variables, r.summary, metric,
                                         opts.top_n == 0 ? 20 : opts.top_n)
                  .c_str());

  analysis::Table hot({"variable", "access site", to_string(metric)});
  for (const auto& a : r.hot_accesses) {
    hot.add_row(
        {a.variable, a.site, analysis::format_count(a.metrics[metric])});
  }
  std::printf("hot heap accesses:\n%s\n", hot.render().c_str());

  analysis::Table flat({"function", "file", to_string(metric)});
  for (const auto& f : r.functions) {
    flat.add_row(
        {f.func, f.file, analysis::format_count(f.metrics[metric])});
  }
  std::printf("code-centric flat view:\n%s\n", flat.render().c_str());

  const std::size_t view_rows = opts.top_n == 0 ? 20 : opts.top_n;
  if (!r.mem_levels.empty()) {
    std::printf("memory-level breakdown (sampled accesses):\n%s\n",
                analysis::render_mem_levels(r.mem_levels, view_rows).c_str());
  }
  if (!r.reuse.empty()) {
    std::printf("reuse distance (sampled accesses between line touches):\n%s\n",
                analysis::render_reuse(r.reuse, view_rows).c_str());
  }
  if (!r.strides.empty()) {
    std::printf("access strides:\n%s\n",
                analysis::render_strides(r.strides, view_rows).c_str());
  }

  if (r.threads.size() > 1) {
    std::uint64_t lo = ~0ull;
    std::uint64_t hi = 0;
    for (const auto& t : r.threads) {
      lo = std::min(lo, t.metrics[core::Metric::kSamples]);
      hi = std::max(hi, t.metrics[core::Metric::kSamples]);
    }
    std::printf("per-thread samples: min %s, max %s across %zu threads\n\n",
                analysis::format_count(lo).c_str(),
                analysis::format_count(hi).c_str(), r.threads.size());
  }

  if (!top_down_class.empty()) {
    core::StorageClass cls = core::StorageClass::kHeap;
    if (top_down_class == "static") {
      cls = core::StorageClass::kStatic;
    } else if (top_down_class == "stack") {
      cls = core::StorageClass::kStack;
    } else if (top_down_class == "unknown") {
      cls = core::StorageClass::kUnknown;
    }  // "heap" and anything else were validated right after parsing
    std::printf("%s\n",
                analysis::render_top_down(r.merged, cls, ctx, {metric})
                    .c_str());
  }

  std::vector<analysis::WhatIfPrediction> predictions;
  if (!whatif_workload.empty()) {
    wl::WhatIfRunConfig run_cfg;
    if (const auto team = measured_team_size(r.threads)) {
      run_cfg.threads = *team;
    } else {
      std::fprintf(stderr,
                   "error: --whatif needs rank 0's thread profiles with "
                   "tids 0..N-1 to re-run the measured team size\n");
      return 1;
    }
    analysis::WhatIfOptions whatif_opts;
    whatif_opts.top_n = static_cast<std::size_t>(whatif_top);
    try {
      const auto t0 = std::chrono::steady_clock::now();
      analysis::WhatIfEngine engine(
          wl::make_whatif_batch_runner(whatif_workload, run_cfg),
          whatif_opts);
      predictions = engine.analyze(r.merged, ctx);
      analysis::apply_predictions(r.advice, predictions);
      const std::uint64_t sims =
          obs::Registry::global().snapshot().value("whatif.simulations");
      std::fprintf(stderr, "what-if: %zu fix%s in %llu simulation%s (%.1f s)\n",
                   predictions.size(), predictions.size() == 1 ? "" : "es",
                   static_cast<unsigned long long>(sims),
                   sims == 1 ? "" : "s",
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: what-if analysis failed: %s\n", e.what());
      return 1;
    }
  }

  if (opts.views & analysis::kViewAdvice) {
    std::printf("== guidance ==\n%s",
                analysis::render_advice(r.advice).c_str());
  }

  if (!whatif_workload.empty()) {
    std::printf("== what-if: predicted payoff (exact re-runs of %s) ==\n%s",
                whatif_workload.c_str(),
                analysis::render_whatif(predictions).c_str());
  }

  if (!html_path.empty()) {
    analysis::HtmlReportOptions opt;
    opt.title = "dcprof report: " + dir;
    opt.metric = metric;
    if (!cli::export_file(html_path,
                          analysis::render_html_report(r.merged, ctx, opt),
                          "HTML report")) {
      return 1;
    }
  }

  analysis::ExportOptions export_opts;
  export_opts.metric = metric;
  export_opts.variable_filter = export_var;
  if (!dot_out.empty() &&
      !cli::export_file(dot_out,
                        analysis::render_dot(r.merged, ctx, export_opts),
                        "Graphviz dot")) {
    return 1;
  }
  if (!folded_out.empty() &&
      !cli::export_file(folded_out,
                        analysis::render_folded(r.merged, ctx, export_opts),
                        "folded stacks")) {
    return 1;
  }

  if (opts.views & analysis::kViewOverhead) {
    std::printf("%s", r.overhead_report.c_str());
  }
  if (!metrics_json.empty() &&
      !cli::export_file(metrics_json,
                        obs::to_json(obs::Registry::global().snapshot()),
                        "metrics snapshot")) {
    return 1;
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
}
