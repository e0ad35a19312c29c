// The unified post-mortem analysis entry point. `Analyzer::run` turns a
// measurement directory into a merged profile plus the rendered-view
// tables, using a streaming, memory-bounded pipeline:
//
//   discover   list profile-<rank>-<tid>.dcpf files + load structure
//   stream     a ReadAhead runs each file's read half (read_shard: read
//              it whole, one CRC32C framing check) on `workers - 1`
//              helper threads, while the calling thread runs the fold
//              half (fold_shard: one streaming merge off the payload,
//              analysis/merge.h) into one aggregate, in listing order
//   views      compute the selected presentation tables
//
// Residency is one deserialized profile (the aggregate) plus the
// read-ahead's window of shard images (kImagesPerReader per reader, at
// most kMaxReaders readers), each in a buffer its slot keeps and reuses,
// whatever the directory size — which is what lets analysis scale to
// rank*thread counts whose profiles do not fit in memory (the paper's
// parallel reduction, recast as an out-of-core fold). The merged output is byte-identical to
// `reduce` over every profile read via `core::list_profile_files` +
// `core::read_profile_file` in listed order.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/advisor.h"
#include "analysis/merge.h"
#include "analysis/views.h"
#include "binfmt/structure.h"
#include "core/metrics.h"
#include "core/profile.h"

namespace dcprof::analysis {

/// Bitmask of the post-merge tables Analyzer::run computes.
enum View : unsigned {
  kViewNone = 0,
  kViewSummary = 1u << 0,      ///< per-storage-class totals
  kViewVariables = 1u << 1,    ///< data-centric variable table
  kViewHotAccesses = 1u << 2,  ///< heap access-site table
  kViewFunctions = 1u << 3,    ///< code-centric flat table
  kViewThreads = 1u << 4,      ///< per-profile totals (pre-merge)
  kViewAdvice = 1u << 5,       ///< rule-based optimization guidance
  kViewOverhead = 1u << 6,     ///< the analyzer's own telemetry report
  kViewMemLevels = 1u << 7,    ///< per-variable memory-level breakdown
  kViewReuse = 1u << 8,        ///< per-variable reuse-distance summary
  kViewStrides = 1u << 9,      ///< per-variable stride classification
  kViewAll = (1u << 10) - 1,
};

/// What fold_shard does with a profile file that fails validation.
/// Every file failing its framing check is first re-read once (by
/// read_shard), so a
/// transient I/O error (NFS hiccup, racing writer) is distinguished from
/// real corruption: only a file that fails twice is treated as corrupt.
enum class CorruptPolicy {
  kStrict,      ///< throw, naming the file at fault
  kSkip,        ///< skip and count; reported in AnalysisResult::skipped
  kQuarantine,  ///< skip, and move the file to <dir>/quarantine/
};

/// The policy a command line names: "strict", "skip" or "quarantine";
/// nullopt for anything else.
std::optional<CorruptPolicy> parse_corrupt_policy(std::string_view name);

/// How fold_shard disposed of one shard.
enum class FoldOutcome {
  kFolded,    ///< intact: merged whole into the aggregate
  kSalvaged,  ///< corrupt: its valid record prefix was merged (salvage)
  kSkipped,   ///< corrupt: nothing of it reached the aggregate
  kVanished,  ///< gone before it could be read (a racing claim or
              ///< quarantine); nothing merged, no policy applied
  kPoisoned,  ///< framing and CRC intact but structurally malformed, and
              ///< detected part-way through the merge: the aggregate
              ///< holds part of the shard and must be discarded
};

/// One fold_shard call's report.
struct ShardFold {
  FoldOutcome outcome = FoldOutcome::kFolded;
  std::string error;           ///< why the shard did not fold whole
  std::uint64_t bytes = 0;     ///< shard size if folded or salvaged, else 0
  bool retried = false;        ///< a re-read cleared a framing failure
  std::string quarantined_to;  ///< destination, when moved (kQuarantine)
  core::SalvageResult salvage; ///< kept/dropped records (kSalvaged)
  ThreadRow row;               ///< rank, tid and node total (kFolded)
};

/// A shard's read half, as read_shard fills it for fold_shard.
struct ShardImage {
  /// The file whole, when `read`. read_shard refills this buffer, so an
  /// image reused shard after shard allocates only for a larger one.
  std::string bytes;
  bool read = false;  ///< `bytes` holds the file, intact or not
  /// Why the image failed its framing check twice, or "vanished after
  /// listing"; empty when the image is intact.
  std::string error;
  bool retried = false;   ///< a re-read cleared a framing failure
  bool vanished = false;  ///< gone before it could be read
};

/// The read half of the one validate-and-fold path for a `.dcpf` shard:
/// reads `file` whole into `image` (core::read_file, keeping the
/// capacity of image.bytes) and runs ThreadProfile::check_framing,
/// re-reading once if either fails. A file that is gone (a racing claim
/// or quarantine) is reported vanished. Touches nothing but `file` and
/// `image`, so any thread may run it.
void read_shard(const std::filesystem::path& file, ShardImage& image);

/// The fold half, shared by the Analyzer's stream stage and the
/// ingestion daemon. Folds `image` (read_shard of `file`) straight off
/// its checked payload: `agg = read_payload(payload)` when `agg` is
/// empty, else `merge_serialized(*agg, payload)` — the order that makes
/// every fold byte-identical to `reduce` over the same files. A corrupt
/// shard then follows `policy`: kStrict throws std::runtime_error naming
/// the file; kQuarantine moves it to `<dir>/quarantine/` (falling back
/// to a plain skip if the move fails); with `salvage` (ignored under
/// kStrict) its valid record prefix is folded, exactly as read_salvage
/// keeps it. A vanished shard folds nothing and follows no policy.
///
/// kPoisoned is the one outcome that leaves `agg` unusable: the caller
/// must discard it (the daemon rolls back to its checkpoint; the
/// Analyzer re-folds the shards it folded whole). Under salvage a
/// poisoned merge already holds exactly the salvaged prefix
/// (merge_serialized's contract), so it reports kSalvaged instead.
ShardFold fold_shard(const std::filesystem::path& dir,
                     const std::filesystem::path& file,
                     const ShardImage& image,
                     std::optional<core::ThreadProfile>& agg,
                     CorruptPolicy policy, bool salvage);

/// One per hardware thread (std::thread::hardware_concurrency), at
/// least 1: the host threads a stream stage uses by default.
int hardware_workers();

/// Shard images a ReadAhead holds per reader thread: read, being read
/// or being folded. Its window is this many slots per reader, each slot
/// keeping its image buffer from shard to shard.
inline constexpr std::size_t kImagesPerReader = 4;

/// Reader threads a ReadAhead starts at most. One thread folds every
/// image, and on the fleet corpus three readers already read and check
/// shards faster than it merges them, so more would only wait for
/// slots; the cap also bounds the window, at any thread count.
inline constexpr std::size_t kMaxReaders = 16;

/// One read_shard thread's work in a ReadAhead.
struct ReaderStat {
  std::size_t files = 0;     ///< images read
  std::uint64_t bytes = 0;   ///< their bytes
  double busy_ms = 0;        ///< wall time inside read_shard
};

/// The bounded read-ahead both folds stream through. `workers` counts
/// the host threads, the caller included: the other `workers - 1`
/// (clamped to the file count less one and to kMaxReaders) claim files
/// one at a time and run read_shard on them into a ring of
/// kImagesPerReader slots per reader, while the caller takes the images
/// with next() in listing order and folds them. A slot's buffer is
/// reused for every file it holds, so the images take the window's
/// largest shards' bytes, allocated once. With one worker next() reads
/// on the caller into one slot: the serial fold, through the same code.
/// The destructor stops and joins the readers wherever the caller left
/// off, so a throw or an early return leaves none running; a reader
/// never reads a file outside `files`.
class ReadAhead {
 public:
  ReadAhead(std::span<const std::string> files, int workers);
  ~ReadAhead();
  ReadAhead(const ReadAhead&) = delete;
  ReadAhead& operator=(const ReadAhead&) = delete;

  /// Host threads in use, the caller included.
  int workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Slots: the images held at most, the one being folded included.
  std::size_t window() const { return window_; }

  /// read_shard of the next file in listing order: files[k] on the k-th
  /// call, waiting for its reader if need be. The image lives in its
  /// slot until the next call, which hands the slot back for file
  /// k + window(). At most files.size() calls.
  const ShardImage& next();

  /// Joins the readers (the last image next() returned is then no longer
  /// valid) and returns what each read (one entry, the caller's, with
  /// one worker).
  std::vector<ReaderStat> finish();

  /// High-water of images held at once: read, being read or being
  /// folded (at most window()).
  std::size_t peak_images() const {
    return peak_images_.load(std::memory_order_relaxed);
  }

  /// After finish(): the bytes the slots' image buffers reached (a
  /// buffer is reused, never shrunk, so this is their high-water).
  std::uint64_t image_bytes() const;

 private:
  struct Slot;
  void read_loop(std::size_t reader);
  void stop();

  std::span<const std::string> files_;
  std::size_t window_ = 1;
  std::unique_ptr<Slot[]> slots_;
  std::size_t next_ = 0;                 ///< next() calls so far
  std::atomic<std::size_t> claimed_{0};  ///< files handed to readers
  /// Images the caller has handed back: slot k % window_ is free for
  /// file k once k < released_ + window_.
  std::atomic<std::size_t> released_{0};
  std::atomic<std::size_t> peak_images_{0};
  std::atomic<bool> stop_{false};
  std::vector<ReaderStat> stats_;
  std::vector<std::thread> threads_;
};

/// Wall time per pipeline stage, in milliseconds. A view over the same
/// measurements that feed the registry's `analyze.stage_us{stage=...}`
/// counters (which accumulate across runs).
struct StageTimings {
  double discover_ms = 0;  ///< directory listing + structure load
  double stream_ms = 0;    ///< read-ahead + fold into the one aggregate
  /// Always 0: the stream stage folds into one aggregate, so there are
  /// no partials left to combine. Kept while perfbench reads it.
  double combine_ms = 0;
  double views_ms = 0;     ///< post-merge table computation
  double total_ms = 0;
};

struct AnalysisResult {
  core::ThreadProfile merged;       ///< aggregate over all readable profiles
  binfmt::StructureData structure;  ///< symbol info for rendering

  // Pipeline statistics.
  std::size_t files_discovered = 0;
  std::size_t files_read = 0;               ///< folded whole
  /// Files not folded whole: corrupt (failed validation twice, or
  /// poisoned mid-merge; salvaged ones included) or vanished after
  /// listing.
  std::size_t files_skipped = 0;
  std::vector<std::string> skipped;         ///< "path: reason" per skip
  std::size_t files_quarantined = 0;        ///< moved (kQuarantine policy)
  std::vector<std::string> quarantined;     ///< "src -> dest" per move
  std::size_t transient_retries = 0;        ///< re-reads that then passed
  // Recovery-mode accounting (Options::salvage): corrupt files whose
  // valid record prefix was folded into the merge anyway.
  std::size_t files_salvaged = 0;
  std::size_t records_salvaged = 0;         ///< records kept across files
  std::size_t records_dropped = 0;          ///< declared but unreadable
  std::vector<std::string> salvaged;        ///< "path: kept K, dropped D"
  /// Profile + structure bytes streamed, salvaged files included (their
  /// bytes were read and their valid prefix merged — that work counts).
  std::uint64_t bytes_streamed = 0;
  /// High-water of deserialized profiles: 1, the aggregate, at any
  /// worker count.
  std::size_t peak_resident_profiles = 0;
  /// High-water of shard images the read-ahead held at once (at most
  /// its window), and the bytes its reused image buffers reached. With
  /// the aggregate, that is the stream stage's residency.
  std::size_t peak_resident_images = 0;
  std::uint64_t image_buffer_bytes = 0;
  int workers_used = 0;  ///< stream-stage host threads, the caller included
  StageTimings timings;
  /// What each read_shard thread of the stream stage did (one entry, the
  /// folding thread's own reads, with one worker).
  std::vector<ReaderStat> readers;
  /// The folding thread's time in fold_shard (merges, salvage,
  /// quarantine, poison re-folds); stream_ms less this is its wait for
  /// images and, with one worker, its own reads.
  double merge_ms = 0;

  // View tables (filled per Options::views; empty otherwise).
  ClassSummary summary;
  std::vector<VariableRow> variables;
  std::vector<AccessRow> hot_accesses;
  std::vector<FunctionRow> functions;
  std::vector<ThreadRow> threads;  ///< in profile-file order, pre-merge
  std::vector<Advice> advice;
  std::string overhead_report;     ///< kViewOverhead: Table-1-style text
  // Memory-centric views over the v4 access-pattern tables (empty when
  // the profile predates v4 or pattern recording was off).
  std::vector<MemLevelRow> mem_levels;
  std::vector<ReuseRow> reuse;
  std::vector<StrideRow> strides;

  /// Label-resolution context wired to this result's structure data.
  /// Rebuild after moving the result; the context borrows from it.
  AnalysisContext context() const;
};

class Analyzer {
 public:
  struct Options {
    /// Host threads of the stream stage, the folding thread included:
    /// `workers - 1` of them read ahead (clamped to the file count and to
    /// kMaxReaders). The aggregate is the same at any count; residency
    /// is the aggregate plus kImagesPerReader images per reader. 1 is
    /// the serial fold.
    int workers = hardware_workers();
    /// Row cap for every view table (0 = unlimited).
    std::size_t top_n = 10;
    /// Sort key for every view table.
    core::Metric sort_metric = core::Metric::kLatency;
    /// Which tables to compute after the merge.
    unsigned views = kViewSummary | kViewVariables | kViewHotAccesses |
                     kViewFunctions | kViewThreads | kViewMemLevels |
                     kViewReuse | kViewStrides;
    /// What to do with files that fail validation (after one re-read to
    /// rule out transient I/O errors), or that vanish between listing
    /// and folding (kStrict throws; otherwise they are listed in
    /// `skipped`). The merged output is unaffected by the choice between
    /// kSkip and kQuarantine: both fold exactly the readable files.
    CorruptPolicy corrupt_policy = CorruptPolicy::kSkip;
    /// Recovery mode: fold the valid record prefix of corrupt files
    /// into the merge (reported per file), instead of dropping the file
    /// entirely. Off by default so a corrupt shard cannot silently
    /// perturb the aggregate. Ignored under kStrict.
    bool salvage = false;
    /// Thresholds for the advice view (kViewAdvice).
    AdvisorOptions advisor;
    /// Called after each profile file is folded during the stream stage,
    /// on the folding thread (the caller of run), with `done` counting
    /// 1, 2, ... up to `total`.
    std::function<void(std::size_t done, std::size_t total)> progress;

    /// Adds views to the current bitmask and returns *this:
    /// `Analyzer(Options{}.add_views(kViewAdvice))`.
    Options& add_views(unsigned mask) {
      views |= mask;
      return *this;
    }
  };

  Analyzer() = default;
  explicit Analyzer(Options options) : options_(options) {}

  const Options& options() const { return options_; }

  /// Runs the full pipeline on one measurement directory. Throws
  /// std::runtime_error if the directory is missing, has no structure
  /// file, or yields no readable profile (errors name the file at
  /// fault). Corrupt profiles are handled per Options::corrupt_policy
  /// (skipped and counted by default). A poisoned shard (see
  /// fold_shard) costs a re-fold of the shards folded whole before it,
  /// never a different aggregate or a doubled count.
  AnalysisResult run(const std::filesystem::path& dir) const;

 private:
  Options options_;
};

}  // namespace dcprof::analysis
