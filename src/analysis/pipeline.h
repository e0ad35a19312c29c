// The unified post-mortem analysis entry point. `Analyzer::run` turns a
// measurement directory into a merged profile plus the rendered-view
// tables, using a streaming, memory-bounded pipeline:
//
//   discover   list profile-<rank>-<tid>.dcpf files + load structure
//   stream     `workers` host threads each fold a contiguous shard of
//              the file list into one partial aggregate, one fold_shard
//              call per file: mmap, one CRC32C framing check, one
//              streaming merge off the mapping (analysis/merge.h)
//   combine    fold the <= `workers` partials, in shard order
//   views      compute the selected presentation tables
//
// Peak residency is bounded by the worker count — at most one
// deserialized profile (its running partial) per worker, never the whole
// directory — which is what lets analysis scale to rank*thread counts
// whose profiles do not fit in memory (the paper's parallel reduction,
// recast as an out-of-core fold). The merged output is byte-identical
// to `reduce` over every profile read via `core::list_profile_files` +
// `core::read_profile_file` in listed order.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
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
  kViewAllocSites = 1u << 4,   ///< bottom-up allocation-site table
  kViewThreads = 1u << 5,      ///< per-profile totals (pre-merge)
  kViewAdvice = 1u << 6,       ///< rule-based optimization guidance
  kViewOverhead = 1u << 7,     ///< the analyzer's own telemetry report
  kViewMemLevels = 1u << 8,    ///< per-variable memory-level breakdown
  kViewReuse = 1u << 9,        ///< per-variable reuse-distance summary
  kViewStrides = 1u << 10,     ///< per-variable stride classification
  kViewAll = (1u << 11) - 1,
};

/// What fold_shard does with a profile file that fails validation.
/// Every file failing its framing check is first re-mapped once, so a
/// transient I/O error (NFS hiccup, racing writer) is distinguished from
/// real corruption: only a file that fails twice is treated as corrupt.
enum class CorruptPolicy {
  kStrict,      ///< throw, naming the file at fault
  kSkip,        ///< skip and count; reported in AnalysisResult::skipped
  kQuarantine,  ///< skip, and move the file to <dir>/quarantine/
};

/// How fold_shard disposed of one shard.
enum class FoldOutcome {
  kFolded,    ///< intact: merged whole into the aggregate
  kSalvaged,  ///< corrupt: its valid record prefix was merged (salvage)
  kSkipped,   ///< corrupt: nothing of it reached the aggregate
  kVanished,  ///< gone before it could be mapped (a racing claim or
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
  bool retried = false;        ///< a re-map cleared a framing failure
  std::string quarantined_to;  ///< destination, when moved (kQuarantine)
  core::SalvageResult salvage; ///< kept/dropped records (kSalvaged)
  ProfileSummary summary;      ///< header fields + node total (kFolded)
};

/// The one validate-and-fold path for a `.dcpf` shard, shared by the
/// Analyzer's stream stage and the ingestion daemon. Maps `file`
/// (core::MappedFile, no heap copy), runs ThreadProfile::check_framing
/// (re-mapping once if it fails), then folds the shard straight off the
/// mapping: `agg = read(bytes)` when `agg` is empty, else
/// `merge_serialized(*agg, bytes)` — the order that makes every fold
/// byte-identical to `reduce` over the same files. A corrupt shard then
/// follows `policy`: kStrict throws std::runtime_error naming the file;
/// kQuarantine moves it to `<dir>/quarantine/` (falling back to a plain
/// skip if the move fails); with `salvage` (ignored under kStrict) its
/// valid record prefix is folded, exactly as read_salvage keeps it.
///
/// kPoisoned is the one outcome that leaves `agg` unusable: the caller
/// must discard it (the daemon rolls back to its checkpoint; a batch
/// worker re-folds its earlier shards). Under salvage a poisoned merge
/// already holds exactly the salvaged prefix (merge_serialized's
/// contract), so it reports kSalvaged instead.
ShardFold fold_shard(const std::filesystem::path& dir,
                     const std::filesystem::path& file,
                     std::optional<core::ThreadProfile>& agg,
                     CorruptPolicy policy, bool salvage);

/// Wall time per pipeline stage, in milliseconds. A view over the same
/// measurements that feed the registry's `analyze.stage_us{stage=...}`
/// counters (which accumulate across runs).
struct StageTimings {
  double discover_ms = 0;  ///< directory listing + structure load
  double stream_ms = 0;    ///< parallel read + streaming merge
  double combine_ms = 0;   ///< fold of the worker partials
  double views_ms = 0;     ///< post-merge table computation
  double total_ms = 0;
};

/// One stream-stage worker's shard, as it ran.
struct ShardStat {
  int worker = 0;
  /// Files folded into the partial: whole shards plus salvaged prefixes
  /// (skipped files excluded — no bytes of theirs were merged).
  std::size_t files = 0;
  std::uint64_t bytes = 0;     ///< serialized bytes streamed (incl. salvaged)
  double merge_ms = 0;         ///< wall time of the whole shard fold
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
  std::size_t transient_retries = 0;        ///< re-maps that then passed
  // Recovery-mode accounting (Options::salvage): corrupt files whose
  // valid record prefix was folded into the merge anyway.
  std::size_t files_salvaged = 0;
  std::size_t records_salvaged = 0;         ///< records kept across files
  std::size_t records_dropped = 0;          ///< declared but unreadable
  std::vector<std::string> salvaged;        ///< "path: kept K, dropped D"
  /// Profiles written under overload degradation ("path: period P -> Q");
  /// their sample-derived metrics are scaled by Q/P relative to the rest.
  std::vector<std::string> throttled;
  /// Profile + structure bytes streamed, salvaged files included (their
  /// bytes were read and their valid prefix merged — that work counts).
  std::uint64_t bytes_streamed = 0;
  std::size_t peak_resident_profiles = 0;  ///< high-water; <= workers + 1
  int workers_used = 0;
  StageTimings timings;
  std::vector<ShardStat> shards;  ///< one per stream-stage worker

  // View tables (filled per Options::views; empty otherwise).
  ClassSummary summary;
  std::vector<VariableRow> variables;
  std::vector<AccessRow> hot_accesses;
  std::vector<FunctionRow> functions;
  std::vector<AllocSiteRow> alloc_sites;
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
    /// Host threads for the streaming read+merge stage. Also the memory
    /// bound: at most this many profiles are resident at once.
    int workers = 1;
    /// Row cap for the variable/access/function/alloc-site tables
    /// (0 = unlimited).
    std::size_t top_n = 10;
    /// Sort key for every view table.
    core::Metric sort_metric = core::Metric::kLatency;
    /// Which tables to compute after the merge.
    unsigned views = kViewSummary | kViewVariables | kViewHotAccesses |
                     kViewFunctions | kViewThreads | kViewMemLevels |
                     kViewReuse | kViewStrides;
    /// What to do with files that fail validation (after one re-map to
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
    /// Called after each profile file is folded during the stream stage.
    /// Invoked from worker threads — must be thread-safe.
    std::function<void(std::size_t done, std::size_t total)> progress;

    // --- Fluent builder -------------------------------------------------
    // Each setter mutates in place and returns *this so call sites can
    // chain: `Analyzer(Options{}.with_workers(4).with_top_n(20))`.
    // Options stays an aggregate (no user-declared constructors), so
    // designated/aggregate initialization keeps working unchanged.
    Options& with_workers(int n) {
      workers = n;
      return *this;
    }
    Options& with_top_n(std::size_t n) {
      top_n = n;
      return *this;
    }
    Options& with_sort_metric(core::Metric m) {
      sort_metric = m;
      return *this;
    }
    /// Replaces the view bitmask wholesale.
    Options& with_views(unsigned mask) {
      views = mask;
      return *this;
    }
    /// Adds views to the current bitmask (e.g. `add_views(kViewAdvice)`).
    Options& add_views(unsigned mask) {
      views |= mask;
      return *this;
    }
    Options& with_policy(CorruptPolicy p) {
      corrupt_policy = p;
      return *this;
    }
    Options& with_salvage(bool on = true) {
      salvage = on;
      return *this;
    }
    Options& with_advisor(const AdvisorOptions& a) {
      advisor = a;
      return *this;
    }
    Options& with_progress(
        std::function<void(std::size_t done, std::size_t total)> cb) {
      progress = std::move(cb);
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
  /// fold_shard) costs its worker a re-fold of the shards before it in
  /// its range, never a different aggregate or a doubled count.
  AnalysisResult run(const std::filesystem::path& dir) const;

 private:
  Options options_;
};

}  // namespace dcprof::analysis
