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

#include "core/checksum.h"
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

/// Times one stage of Analyzer::run, from construction to destruction,
/// and records that one interval three ways: into its StageTimings field
/// (`ms`), its `analyze.stage_us{stage=...}` counter, and, when tracing,
/// its `span` (a string literal).
class StageTimer {
 public:
  StageTimer(const char* span, const char* stage, double& ms)
      : span_(span), ms_(ms),
        us_(obs::Registry::global().counter("analyze.stage_us",
                                            {{"stage", stage}})) {}
  ~StageTimer() {
    const std::chrono::nanoseconds dur = Clock::now() - t0_;
    ms_ = std::chrono::duration<double, std::milli>(dur).count();
    us_.add(us_of(ms_));
    if (obs::Tracer::enabled()) {
      obs::Tracer& tr = obs::Tracer::global();
      const auto ns = static_cast<std::uint64_t>(dur.count());
      tr.record_complete(span_, tr.now_ns() - ns, ns);
    }
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  const char* span_;
  double& ms_;
  obs::Counter us_;
  Clock::time_point t0_ = Clock::now();
};

/// What merge_serialized would report for `p`'s serialized form.
ThreadRow thread_row(const core::ThreadProfile& p) {
  ThreadRow row{p.rank, p.tid, {}};
  for (const auto& cct : p.ccts) row.metrics += cct.total();
  return row;
}

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
      << "      merge             " << r.merge_ms << " ms  (folding thread)\n"
      << "    views               " << r.timings.views_ms << " ms\n"
      << "  peak resident profiles  " << r.peak_resident_profiles << "\n"
      << "  peak resident images    " << r.peak_resident_images << "  ("
      << r.image_buffer_bytes / 1024.0 << " KB of image buffers)\n";
  for (std::size_t k = 0; k < r.readers.size(); ++k) {
    const ReaderStat& s = r.readers[k];
    out << "  reader " << k << "  " << s.files << " files, "
        << s.bytes / 1024.0 << " KB, " << s.busy_ms << " ms busy\n";
  }
  return std::move(out).str();
}

}  // namespace

std::optional<CorruptPolicy> parse_corrupt_policy(std::string_view name) {
  if (name == "strict") return CorruptPolicy::kStrict;
  if (name == "skip") return CorruptPolicy::kSkip;
  if (name == "quarantine") return CorruptPolicy::kQuarantine;
  return std::nullopt;
}

void read_shard(const fs::path& file, ShardImage& image) {
  image.read = false;
  image.error.clear();
  image.retried = false;
  image.vanished = false;
  // One re-read before a shard is declared corrupt: a transient I/O
  // error (torn read, racing writer) passes the second time; real
  // corruption fails again.
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      core::read_file(file, image.bytes);
      image.read = true;
      image.error = core::ThreadProfile::check_framing(image.bytes);
    } catch (const std::exception& e) {
      image.read = false;
      std::error_code ec;
      if (!fs::exists(file, ec)) {
        image.vanished = true;
        image.error = "vanished after listing";
        return;
      }
      image.error = e.what();
    }
    if (image.error.empty()) {
      image.retried = attempt > 0;
      break;
    }
  }
}

ShardFold fold_shard(const fs::path& dir, const fs::path& file,
                     const ShardImage& image,
                     std::optional<core::ThreadProfile>& agg,
                     CorruptPolicy policy, bool salvage) {
  ShardFold r;
  r.error = image.error;
  r.retried = image.retried;
  if (image.vanished) {
    r.outcome = FoldOutcome::kVanished;
    return r;
  }
  const std::string& bytes = image.bytes;
  bool poisoned = false;
  if (r.error.empty()) {
    const std::string_view payload = core::sealed_payload(bytes);
    try {
      if (!agg) {
        agg = core::ThreadProfile::read_payload(payload);  // only on success
        r.row = thread_row(*agg);
      } else {
        r.row = merge_serialized(*agg, payload);
      }
      r.bytes = bytes.size();
      return r;
    } catch (const std::exception& e) {
      // Checksum-intact but structurally malformed: a buggy writer, not
      // a torn write, so no re-read. A failed read left `agg` empty; a
      // failed merge left part of the shard in it.
      r.error = e.what();
      poisoned = agg.has_value();
    }
  }
  if (policy == CorruptPolicy::kStrict) {
    throw std::runtime_error(file.string() + ": " + r.error);
  }
  r.outcome = poisoned ? FoldOutcome::kPoisoned : FoldOutcome::kSkipped;
  if (salvage && image.read) {
    // A poisoned merge has already folded exactly this prefix (see
    // merge_serialized); otherwise nothing of the shard is in `agg` yet.
    core::ThreadProfile prefix =
        core::ThreadProfile::read_salvage(bytes, r.salvage);
    if (!poisoned && r.salvage.records_kept > 0) {
      if (!agg) {
        agg = std::move(prefix);
      } else {
        merge_into(*agg, prefix);
      }
    }
    r.outcome = FoldOutcome::kSalvaged;
    r.bytes = bytes.size();
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

int hardware_workers() {
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// One image place of the window: file k lives in slot k % window.
struct ReadAhead::Slot {
  std::atomic<std::size_t> filled{0};  ///< k + 1 once file k's image is in
  ShardImage image;          ///< its buffer is kept from file to file
  std::exception_ptr error;  ///< what read_shard threw instead
};

ReadAhead::ReadAhead(std::span<const std::string> files, int workers)
    : files_(files) {
  const std::size_t readers = std::min<std::size_t>(
      {static_cast<std::size_t>(std::max(workers, 1)) - 1,
       files.empty() ? 0 : files.size() - 1, kMaxReaders});
  window_ = std::max<std::size_t>(readers * kImagesPerReader, 1);
  slots_ = std::make_unique<Slot[]>(window_);
  stats_.resize(std::max<std::size_t>(readers, 1));
  threads_.reserve(readers);
  try {
    for (std::size_t k = 0; k < readers; ++k) {
      threads_.emplace_back([this, k] { read_loop(k); });
    }
  } catch (...) {
    stop();
    throw;
  }
}

ReadAhead::~ReadAhead() { stop(); }

void ReadAhead::stop() {
  stop_.store(true, std::memory_order_relaxed);
  // Free every slot, so a reader waiting for one wakes, sees stop_ and
  // leaves.
  released_.store(files_.size(), std::memory_order_release);
  released_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ReadAhead::read_loop(std::size_t reader) {
  if (obs::Tracer::enabled()) {
    obs::Tracer::global().set_thread_name("read-ahead-" +
                                          std::to_string(reader));
  }
  OBS_SPAN_V("analyze.read_ahead", "reader", reader);
  ReaderStat& stat = stats_[reader];
  for (;;) {
    const std::size_t k = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (k >= files_.size()) return;
    // Slot k % window is free once the caller has handed back file
    // k - window.
    std::size_t released = released_.load(std::memory_order_acquire);
    for (; k >= released + window_;
         released = released_.load(std::memory_order_acquire)) {
      released_.wait(released, std::memory_order_acquire);
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    // Files released..k are all held now: read, being read or folded.
    const std::size_t held = k + 1 - released;
    for (std::size_t peak = peak_images_.load(std::memory_order_relaxed);
         held > peak && !peak_images_.compare_exchange_weak(
                            peak, held, std::memory_order_relaxed);) {
    }
    Slot& slot = slots_[k % window_];
    const auto t0 = Clock::now();
    try {
      read_shard(files_[k], slot.image);
      if (slot.image.read) stat.bytes += slot.image.bytes.size();
    } catch (...) {
      slot.error = std::current_exception();
    }
    stat.busy_ms += ms_since(t0);
    ++stat.files;
    slot.filled.store(k + 1, std::memory_order_release);
    slot.filled.notify_one();
  }
}

const ShardImage& ReadAhead::next() {
  const std::size_t k = next_++;
  if (threads_.empty()) {
    ShardImage& image = slots_[0].image;
    const auto t0 = Clock::now();
    read_shard(files_[k], image);
    ReaderStat& stat = stats_[0];
    stat.busy_ms += ms_since(t0);
    ++stat.files;
    if (image.read) stat.bytes += image.bytes.size();
    peak_images_.store(1, std::memory_order_relaxed);
    return image;
  }
  // Hand back file k - 1's slot, for file k - 1 + window. Waking the
  // readers once per quarter window, not per image, keeps the folding
  // thread off the futex on most calls.
  released_.store(k, std::memory_order_release);
  if (k % std::max<std::size_t>(window_ / 4, 1) == 0) {
    released_.notify_all();
  }
  Slot& slot = slots_[k % window_];
  std::size_t filled = slot.filled.load(std::memory_order_acquire);
  if (filled != k + 1) {
    // About to wait: first wake the readers waiting for a slot, since
    // the one that owns file k may be among them.
    released_.notify_all();
    for (; filled != k + 1;
         filled = slot.filled.load(std::memory_order_acquire)) {
      slot.filled.wait(filled, std::memory_order_acquire);
    }
  }
  if (slot.error) std::rethrow_exception(std::exchange(slot.error, nullptr));
  return slot.image;
}

std::vector<ReaderStat> ReadAhead::finish() {
  stop();
  return stats_;
}

std::uint64_t ReadAhead::image_bytes() const {
  std::uint64_t bytes = 0;
  for (std::size_t k = 0; k < window_; ++k) {
    bytes += slots_[k].image.bytes.capacity();
  }
  return bytes;
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
  const auto t_start = Clock::now();
  AnalysisResult result;
  StageTimings& timings = result.timings;

  // Stage 1: discover.
  std::vector<std::string> files;
  {
    const StageTimer timer("analyze.discover", "discover",
                           timings.discover_ms);
    result.structure = core::read_structure_file(dir);
    result.bytes_streamed += fs::file_size(dir / "structure.dcst");
    files = core::list_profile_files(dir);
  }
  result.files_discovered = files.size();
  if (files.empty()) {
    throw std::runtime_error("no profiles in " + dir.string());
  }

  // Stage 2: stream. The calling thread folds every file into one
  // aggregate in listing order, so the result is byte-identical to
  // reduce(); the read-ahead only moves the reads and framing checks to
  // other threads. Every file after the first is merged straight off
  // the bytes read from it, so the aggregate is the one deserialized
  // profile.
  obs::Gauge gauge = reg.gauge("analyze.resident_profiles");
  std::optional<core::ThreadProfile> merged;
  {
    const StageTimer timer("analyze.stream", "stream", timings.stream_ms);
    const CorruptPolicy policy = options_.corrupt_policy;
    const bool salvage = options_.salvage;
    const bool want_threads = (options_.views & kViewThreads) != 0;
    if (want_threads) result.threads.reserve(files.size());
    // The files folded whole so far, in order: what a re-fold replays
    // after a poisoned merge. (Poison is only reported with salvage off,
    // so these are the aggregate's only contributions.)
    std::vector<std::size_t> whole;
    ReadAhead reads(files, options_.workers);
    result.workers_used = reads.workers();
    for (std::size_t i = 0; i < files.size(); ++i) {
      const ShardImage& image = reads.next();
      OBS_SPAN_V("analyze.file", "index", i);
      const auto t_fold = Clock::now();
      const bool had_profile = merged.has_value();
      const ShardFold r =
          fold_shard(dir, files[i], image, merged, policy, salvage);
      if (r.retried) ++result.transient_retries;
      switch (r.outcome) {
        case FoldOutcome::kFolded:
          whole.push_back(i);
          if (want_threads) result.threads.push_back(r.row);
          ++result.files_read;
          break;
        case FoldOutcome::kSalvaged:
          // Salvaged files are work done: their bytes were streamed and
          // their prefix folded (files_read stays whole-only).
          ++result.files_salvaged;
          result.records_salvaged += r.salvage.records_kept;
          result.records_dropped += r.salvage.records_dropped;
          result.salvaged.push_back(
              files[i] + ": kept " + std::to_string(r.salvage.records_kept) +
              ", dropped " + std::to_string(r.salvage.records_dropped));
          break;
        case FoldOutcome::kPoisoned: {
          // Part of files[i] reached the aggregate: rebuild it from the
          // whole shards before it. Published files are immutable, so
          // each must fold whole again (kStrict: no side effects).
          merged.reset();
          ShardImage again;
          for (const std::size_t j : whole) {
            read_shard(files[j], again);
            if (fold_shard(dir, files[j], again, merged,
                           CorruptPolicy::kStrict, false)
                    .outcome != FoldOutcome::kFolded) {
              throw std::runtime_error(files[j] +
                                       ": changed during analysis");
            }
          }
          break;
        }
        case FoldOutcome::kVanished:
          if (policy == CorruptPolicy::kStrict) {
            throw std::runtime_error(files[i] + ": " + r.error);
          }
          break;
        case FoldOutcome::kSkipped:
          break;
      }
      if (!had_profile && merged) gauge.add(1);
      result.bytes_streamed += r.bytes;
      if (r.outcome != FoldOutcome::kFolded) {
        result.skipped.push_back(files[i] + ": " + r.error);
      }
      if (!r.quarantined_to.empty()) {
        result.quarantined.push_back(files[i] + " -> " + r.quarantined_to);
      }
      result.merge_ms += ms_since(t_fold);
      if (options_.progress) options_.progress(i + 1, files.size());
    }
    result.readers = reads.finish();
    result.peak_resident_images = reads.peak_images();
    result.image_buffer_bytes = reads.image_bytes();
    result.files_skipped = result.skipped.size();
    result.files_quarantined = result.quarantined.size();
    reg.counter("analyze.merge_us").add(us_of(result.merge_ms));
    for (std::size_t k = 0; k < result.readers.size(); ++k) {
      reg.counter("analyze.read_us", {{"reader", std::to_string(k)}})
          .add(us_of(result.readers[k].busy_ms));
    }
  }
  if (!merged) {
    throw std::runtime_error("no readable profiles in " + dir.string());
  }
  result.merged = std::move(*merged);
  result.peak_resident_profiles = static_cast<std::size_t>(gauge.max());

  // Stage 4: views.
  {
    const StageTimer timer("analyze.views", "views", timings.views_ms);
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
  }
  timings.total_ms = ms_since(t_start);
  if (options_.views & kViewOverhead) {
    result.overhead_report = render_overhead(result);
  }
  return result;
}

}  // namespace dcprof::analysis
