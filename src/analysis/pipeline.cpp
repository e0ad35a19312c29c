#include "analysis/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/mapped_file.h"
#include "core/measurement.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace dcprof::analysis {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::uint64_t us_of(double ms) {
  return ms > 0 ? static_cast<std::uint64_t>(ms * 1000.0) : 0;
}

/// What merge_serialized would report for `p`'s serialized form.
ProfileSummary summarize_profile(const core::ThreadProfile& p) {
  ProfileSummary s{p.rank, p.tid, p.sampling_period, p.effective_period, {}};
  for (const auto& cct : p.ccts) s.total += cct.total();
  return s;
}

/// Everything one worker produces from its contiguous shard of the
/// sorted file list.
struct WorkerOutput {
  std::optional<core::ThreadProfile> partial;
  std::vector<ThreadRow> threads;
  std::vector<std::string> skipped;
  std::vector<std::string> quarantined;
  std::vector<std::string> salvaged;
  std::vector<std::string> throttled;
  std::uint64_t bytes = 0;
  std::size_t files_read = 0;
  std::size_t files_salvaged = 0;
  std::size_t records_salvaged = 0;
  std::size_t records_dropped = 0;
  std::size_t transient_retries = 0;
  double merge_ms = 0;
  std::exception_ptr error;
};

template <typename Rows>
void truncate_rows(Rows& rows, std::size_t top_n) {
  if (top_n != 0 && rows.size() > top_n) rows.resize(top_n);
}

/// kViewOverhead: the analyzer reporting on itself, from the same live
/// telemetry that feeds the registry (Table-1 style, but for analysis).
std::string render_overhead(const AnalysisResult& r) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(2);
  out << "analysis overhead (self-telemetry)\n"
      << "  total wall            " << r.timings.total_ms << " ms\n"
      << "    discover            " << r.timings.discover_ms << " ms\n"
      << "    stream              " << r.timings.stream_ms << " ms  ("
      << r.workers_used << " workers, " << r.files_read << " files, "
      << r.bytes_streamed / 1024.0 << " KB)\n"
      << "    combine             " << r.timings.combine_ms << " ms\n"
      << "    views               " << r.timings.views_ms << " ms\n"
      << "  peak resident profiles  " << r.peak_resident_profiles << "\n";
  for (const auto& s : r.shards) {
    out << "  shard " << s.worker << "  " << s.files << " files, "
        << s.bytes / 1024.0 << " KB, " << s.merge_ms << " ms\n";
  }
  return std::move(out).str();
}

}  // namespace

ShardFold fold_shard(const fs::path& dir, const fs::path& file,
                     std::optional<core::ThreadProfile>& agg,
                     CorruptPolicy policy, bool salvage) {
  ShardFold r;
  std::optional<core::MappedFile> map;
  // One re-map before a shard is declared corrupt: a transient I/O error
  // (torn read, racing writer) passes the second time; real corruption
  // fails again.
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      map.emplace(file);
      r.error = core::ThreadProfile::check_framing(map->bytes());
    } catch (const std::exception& e) {
      map.reset();
      std::error_code ec;
      if (!fs::exists(file, ec)) {
        r.outcome = FoldOutcome::kVanished;
        r.error = "vanished after listing";
        return r;
      }
      r.error = e.what();
    }
    if (r.error.empty()) {
      r.retried = attempt > 0;
      break;
    }
  }
  bool poisoned = false;
  if (r.error.empty()) {
    const std::string_view bytes = map->bytes();
    try {
      if (!agg) {
        agg = core::ThreadProfile::read(bytes);  // assigned only on success
        r.summary = summarize_profile(*agg);
      } else {
        r.summary = merge_serialized(*agg, bytes);
      }
      r.bytes = bytes.size();
      return r;
    } catch (const std::exception& e) {
      // Checksum-intact but structurally malformed: a buggy writer, not
      // a torn write, so no re-map. A failed read left `agg` empty; a
      // failed merge left part of the shard in it.
      r.error = e.what();
      poisoned = agg.has_value();
    }
  }
  if (policy == CorruptPolicy::kStrict) {
    throw std::runtime_error(file.string() + ": " + r.error);
  }
  r.outcome = poisoned ? FoldOutcome::kPoisoned : FoldOutcome::kSkipped;
  if (salvage && map) {
    // A poisoned merge has already folded exactly this prefix (see
    // merge_serialized); otherwise nothing of the shard is in `agg` yet.
    core::ThreadProfile prefix =
        core::ThreadProfile::read_salvage(map->bytes(), r.salvage);
    if (!poisoned && r.salvage.records_kept > 0) {
      if (!agg) {
        agg = std::move(prefix);
      } else {
        merge_into(*agg, prefix);
      }
    }
    r.outcome = FoldOutcome::kSalvaged;
    r.bytes = map->size();
  }
  if (policy == CorruptPolicy::kQuarantine) {
    try {
      r.quarantined_to = core::quarantine_profile_file(dir, file).string();
    } catch (const std::exception& e) {
      // Fall back to a plain skip so one stubborn shard cannot wedge a
      // caller; the reason says why it is still in place.
      r.error += std::string("; not quarantined: ") + e.what();
    }
  }
  return r;
}

AnalysisContext AnalysisResult::context() const {
  AnalysisContext ctx;
  ctx.modules = &structure;
  ctx.alloc_names = &structure.alloc_names();
  return ctx;
}

AnalysisResult Analyzer::run(const fs::path& dir) const {
  OBS_SPAN("analyze.run");
  obs::Registry& reg = obs::Registry::global();
  obs::Counter stage_discover_us =
      reg.counter("analyze.stage_us", {{"stage", "discover"}});
  obs::Counter stage_stream_us =
      reg.counter("analyze.stage_us", {{"stage", "stream"}});
  obs::Counter stage_combine_us =
      reg.counter("analyze.stage_us", {{"stage", "combine"}});
  obs::Counter stage_views_us =
      reg.counter("analyze.stage_us", {{"stage", "views"}});
  const auto t_start = Clock::now();
  AnalysisResult result;

  // Stage 1: discover.
  {
    OBS_SPAN("analyze.discover");
    result.structure = core::read_structure_file(dir);
    result.bytes_streamed += fs::file_size(dir / "structure.dcst");
  }
  const std::vector<fs::path> files = core::list_profile_files(dir);
  result.files_discovered = files.size();
  if (files.empty()) {
    throw std::runtime_error("no profiles in " + dir.string());
  }
  result.timings.discover_ms = ms_since(t_start);
  stage_discover_us.add(us_of(result.timings.discover_ms));

  // Stage 2: stream. Contiguous shards keep the overall fold order equal
  // to the sorted file list, so the result is byte-identical to
  // reduce(); within a shard each worker holds exactly one deserialized
  // profile (its running partial) because every file after the first is
  // merged straight off its mapped bytes.
  const auto t_stream = Clock::now();
  const std::uint64_t ts_stream =
      obs::Tracer::enabled() ? obs::Tracer::global().now_ns() : 0;
  const int workers = std::clamp<int>(
      options_.workers, 1, static_cast<int>(files.size()));
  const CorruptPolicy policy = options_.corrupt_policy;
  const bool salvage = options_.salvage;
  const bool want_threads = (options_.views & kViewThreads) != 0;
  std::vector<WorkerOutput> outs(static_cast<std::size_t>(workers));
  obs::Gauge gauge = reg.gauge("analyze.resident_profiles");
  std::vector<obs::Counter> shard_merge_us;
  for (int w = 0; w < workers; ++w) {
    shard_merge_us.push_back(
        reg.counter("analyze.shard_merge_us", {{"shard", std::to_string(w)}}));
  }
  std::atomic<std::size_t> files_done{0};
  const auto& progress = options_.progress;

  const auto shard = [&](int w, std::size_t begin, std::size_t end,
                         WorkerOutput& out) {
    OBS_SPAN_V("analyze.shard", "worker", w);
    const auto t_shard = Clock::now();
    // The files folded whole into the partial so far, in order: what a
    // re-fold replays after a poisoned merge. (Poison is only reported
    // with salvage off, so these are the partial's only contributions.)
    std::vector<std::size_t> whole;
    try {
      for (std::size_t i = begin; i < end; ++i) {
        OBS_SPAN_V("analyze.file", "index", i);
        const bool had_partial = out.partial.has_value();
        const ShardFold r =
            fold_shard(dir, files[i], out.partial, policy, salvage);
        if (r.retried) ++out.transient_retries;
        switch (r.outcome) {
          case FoldOutcome::kFolded: {
            whole.push_back(i);
            const ProfileSummary& ps = r.summary;
            if (ps.sampling_period != 0 && ps.effective_period != 0 &&
                ps.effective_period != ps.sampling_period) {
              out.throttled.push_back(
                  files[i].string() + ": period " +
                  std::to_string(ps.sampling_period) + " -> " +
                  std::to_string(ps.effective_period));
            }
            if (want_threads) {
              out.threads.push_back(ThreadRow{ps.rank, ps.tid, ps.total});
            }
            ++out.files_read;
            break;
          }
          case FoldOutcome::kSalvaged:
            // Salvaged files are work done: their bytes were streamed and
            // their prefix folded (files_read stays whole-only; ShardStat
            // adds files_salvaged).
            ++out.files_salvaged;
            out.records_salvaged += r.salvage.records_kept;
            out.records_dropped += r.salvage.records_dropped;
            out.salvaged.push_back(
                files[i].string() + ": kept " +
                std::to_string(r.salvage.records_kept) + ", dropped " +
                std::to_string(r.salvage.records_dropped));
            break;
          case FoldOutcome::kPoisoned:
            // Part of files[i] reached the partial: rebuild it from the
            // whole shards before it. Published files are immutable, so
            // each must fold whole again (kStrict: no side effects).
            out.partial.reset();
            for (const std::size_t j : whole) {
              if (fold_shard(dir, files[j], out.partial,
                             CorruptPolicy::kStrict, false)
                      .outcome != FoldOutcome::kFolded) {
                throw std::runtime_error(files[j].string() +
                                         ": changed during analysis");
              }
            }
            break;
          case FoldOutcome::kVanished:
            if (policy == CorruptPolicy::kStrict) {
              throw std::runtime_error(files[i].string() + ": " + r.error);
            }
            break;
          case FoldOutcome::kSkipped:
            break;
        }
        if (!had_partial && out.partial) gauge.add(1);
        out.bytes += r.bytes;
        if (r.outcome != FoldOutcome::kFolded) {
          out.skipped.push_back(files[i].string() + ": " + r.error);
        }
        if (!r.quarantined_to.empty()) {
          out.quarantined.push_back(files[i].string() + " -> " +
                                    r.quarantined_to);
        }
        if (progress) progress(++files_done, files.size());
      }
    } catch (...) {
      out.error = std::current_exception();
    }
    out.merge_ms = ms_since(t_shard);
    shard_merge_us[static_cast<std::size_t>(w)].add(us_of(out.merge_ms));
  };

  if (workers == 1) {
    shard(0, 0, files.size(), outs[0]);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      const std::size_t begin = files.size() * w / workers;
      const std::size_t end = files.size() * (w + 1) / workers;
      pool.emplace_back([&, w, begin, end] {
        if (obs::Tracer::enabled()) {
          obs::Tracer::global().set_thread_name(
              "analyze-worker-" + std::to_string(w));
        }
        shard(w, begin, end, outs[static_cast<std::size_t>(w)]);
      });
    }
    for (auto& t : pool) t.join();
  }
  for (auto& out : outs) {
    if (out.error) std::rethrow_exception(out.error);
  }
  for (int w = 0; w < workers; ++w) {
    auto& out = outs[static_cast<std::size_t>(w)];
    result.files_read += out.files_read;
    result.bytes_streamed += out.bytes;
    result.files_salvaged += out.files_salvaged;
    result.records_salvaged += out.records_salvaged;
    result.records_dropped += out.records_dropped;
    result.transient_retries += out.transient_retries;
    for (auto& row : out.threads) result.threads.push_back(row);
    for (auto& s : out.skipped) result.skipped.push_back(std::move(s));
    for (auto& s : out.quarantined) {
      result.quarantined.push_back(std::move(s));
    }
    for (auto& s : out.salvaged) result.salvaged.push_back(std::move(s));
    for (auto& s : out.throttled) result.throttled.push_back(std::move(s));
    result.shards.push_back(ShardStat{
        w, out.files_read + out.files_salvaged, out.bytes, out.merge_ms});
  }
  result.files_skipped = result.skipped.size();
  result.files_quarantined = result.quarantined.size();
  result.workers_used = workers;
  result.timings.stream_ms = ms_since(t_stream);
  stage_stream_us.add(us_of(result.timings.stream_ms));
  if (obs::Tracer::enabled()) {
    obs::Tracer& tr = obs::Tracer::global();
    tr.record_complete("analyze.stream", ts_stream,
                       tr.now_ns() - ts_stream);
  }

  // Stage 3: combine the worker partials, in shard order.
  const auto t_combine = Clock::now();
  const std::uint64_t ts_combine =
      obs::Tracer::enabled() ? obs::Tracer::global().now_ns() : 0;
  std::optional<core::ThreadProfile> merged;
  for (auto& out : outs) {
    if (!out.partial) continue;  // shard was all-corrupt
    if (!merged) {
      merged = std::move(*out.partial);
    } else {
      merge_into(*merged, *out.partial);
      gauge.add(-1);
    }
    out.partial.reset();
  }
  if (!merged) {
    throw std::runtime_error("no readable profiles in " + dir.string());
  }
  result.merged = std::move(*merged);
  result.peak_resident_profiles = static_cast<std::size_t>(gauge.max());
  result.timings.combine_ms = ms_since(t_combine);
  stage_combine_us.add(us_of(result.timings.combine_ms));
  if (obs::Tracer::enabled()) {
    obs::Tracer& tr = obs::Tracer::global();
    tr.record_complete("analyze.combine", ts_combine,
                       tr.now_ns() - ts_combine);
  }

  // Stage 4: views.
  const auto t_views = Clock::now();
  const std::uint64_t ts_views =
      obs::Tracer::enabled() ? obs::Tracer::global().now_ns() : 0;
  const unsigned views = options_.views;
  const core::Metric metric = options_.sort_metric;
  const AnalysisContext ctx = result.context();
  if (views & (kViewSummary | kViewVariables)) {
    result.summary = summarize(result.merged);
  }
  if (views & kViewVariables) {
    result.variables = variable_table(result.merged, ctx, metric);
    truncate_rows(result.variables, options_.top_n);
  }
  if (views & kViewHotAccesses) {
    result.hot_accesses =
        access_table(result.merged, core::StorageClass::kHeap, ctx, metric);
    truncate_rows(result.hot_accesses, options_.top_n);
  }
  if (views & kViewFunctions) {
    result.functions = function_table(result.merged, ctx, metric);
    truncate_rows(result.functions, options_.top_n);
  }
  if (views & kViewAllocSites) {
    result.alloc_sites = bottom_up_alloc_sites(result.merged, ctx, metric);
    truncate_rows(result.alloc_sites, options_.top_n);
  }
  if (views & kViewAdvice) {
    result.advice = advise(result.merged, ctx, options_.advisor);
  }
  if (views & kViewMemLevels) {
    result.mem_levels = mem_level_table(result.merged, ctx);
    truncate_rows(result.mem_levels, options_.top_n);
  }
  if (views & kViewReuse) {
    result.reuse = reuse_table(result.merged, ctx);
    truncate_rows(result.reuse, options_.top_n);
  }
  if (views & kViewStrides) {
    result.strides = stride_table(result.merged, ctx);
    truncate_rows(result.strides, options_.top_n);
  }
  result.timings.views_ms = ms_since(t_views);
  stage_views_us.add(us_of(result.timings.views_ms));
  if (obs::Tracer::enabled()) {
    obs::Tracer& tr = obs::Tracer::global();
    tr.record_complete("analyze.views", ts_views, tr.now_ns() - ts_views);
  }
  result.timings.total_ms = ms_since(t_start);
  if (views & kViewOverhead) {
    result.overhead_report = render_overhead(result);
  }
  return result;
}

}  // namespace dcprof::analysis
