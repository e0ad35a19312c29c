// Continuous profile ingestion: the long-running counterpart of the
// batch Analyzer. An IngestService watches one or more measurement
// directories that a fleet of measured processes drops `.dcpf` shards
// into, and folds every arriving shard into one incremental aggregate:
//
//   poll       list each watched dir (list_profile_files order), skip
//              shards already in the manifest; a poll bounded by
//              max_files_per_poll keeps the rest of its listing for the
//              next poll, which lists again only once it is used up
//   fold       the Analyzer's own stream (analysis/pipeline.h): a
//              ReadAhead runs read_shard (read the file whole, one
//              CRC32C framing check with one re-read retry) on
//              hardware_workers() - 1 helper threads (at most
//              kMaxReaders), never past the poll's max_files_per_poll
//              bound, while poll_once folds
//              each image in listing order with fold_shard
//              (merge_serialized straight off its payload) — so the
//              aggregate is byte-identical to a one-shot Analyzer::run
//              over the same shards (when shards arrive in listed
//              order; out-of-order arrivals yield a
//              canonically-equal aggregate that differs only in CCT node
//              numbering). A shard whose checksum is intact but whose
//              structure is malformed (a buggy writer, not a torn write)
//              can throw mid-merge; the service then rolls the aggregate
//              back to the last durable checkpoint and re-folds —
//              exactly the crash-recovery path, reused as the
//              poison-shard antidote
//   checkpoint every `checkpoint_every` folds, serialize {counters,
//              ingested-file manifest, merged profile} through
//              write_file_atomic with the `.dcpf`-style CRC32C footer
//   claim      after the checkpoint is durable, move the shards it
//              covers into <dir>/ingested/ (core::claim_profile_file),
//              keeping both the directory listing and the manifest
//              bounded by checkpoint_every, not by fleet size
//
// Crash model: kill the process anywhere. Un-checkpointed folds are lost
// together with the manifest entries that recorded them, so the shards
// are still in the directory on resume and re-ingest idempotently;
// checkpointed-but-unclaimed shards are skipped via the manifest; a kill
// mid-checkpoint leaves the previous checkpoint intact (atomic write).
// Resuming therefore always reproduces the aggregate the uninterrupted
// run would have produced, byte for byte.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/pipeline.h"
#include "core/profile.h"
#include "obs/registry.h"

namespace dcprof::analysis {

struct IngestOptions {
  /// Where checkpoints are written (atomically). Required.
  std::filesystem::path checkpoint;
  /// Folds between automatic checkpoints (0 = only explicit
  /// checkpoint() calls). Also bounds the manifest and — with `claim` —
  /// the watched directory's backlog of already-ingested shards.
  std::size_t checkpoint_every = 64;
  /// Upper bound on folds per poll_once() call (0 = drain everything
  /// listed). Lets callers interleave ingestion with other work and
  /// tests kill the service at precise points. The next poll resumes
  /// the same listing, so a bounded drain lists each directory about
  /// once, not once per poll.
  std::size_t max_files_per_poll = 0;
  /// What to do with a shard that fails validation twice (or poisons a
  /// merge). kStrict throws out of poll_once; kSkip remembers the file
  /// and never retries it; kQuarantine also moves it to
  /// <dir>/quarantine/. Shards that vanish before they are read are
  /// ignored under every policy.
  CorruptPolicy corrupt_policy = CorruptPolicy::kSkip;
  /// Move durably-checkpointed shards into <dir>/ingested/. Disable to
  /// leave the measurement directory untouched (the manifest then grows
  /// with fleet size instead of staying bounded).
  bool claim = true;
};

/// Point-in-time service statistics. Totals are lifetime totals — they
/// survive checkpoint/resume; the matching obs counters
/// (ingest.{files,bytes,checkpoints,resumes,skipped,claimed}) count only
/// this process's work.
struct IngestStats {
  std::uint64_t files = 0;              ///< shards folded into the aggregate
  std::uint64_t bytes = 0;              ///< their serialized bytes
  std::uint64_t skipped = 0;            ///< failed validation twice
  std::uint64_t quarantined = 0;        ///< moved aside (kQuarantine)
  std::uint64_t transient_retries = 0;  ///< re-reads that then validated
  std::uint64_t checkpoints = 0;        ///< checkpoints written
  std::uint64_t resumes = 0;            ///< times state was restored
  std::uint64_t claimed = 0;            ///< shards moved to ingested/
  std::uint64_t polls = 0;              ///< poll_once calls (this process)
  std::size_t manifest = 0;     ///< ingested-but-unclaimed shards tracked
  /// "path: reason" for skipped shards (capped; `skipped` is exact).
  std::vector<std::string> skip_reasons;
};

class IngestService {
 public:
  /// Watches `dirs` (polled in the given order). Loads `opts.checkpoint`
  /// if it exists, restoring the aggregate, counters, and manifest;
  /// throws std::runtime_error if the checkpoint exists but is torn,
  /// corrupt or followed by trailing bytes (a checkpoint published by
  /// write_file_atomic never is — reject loudly rather than silently
  /// re-ingest claimed shards).
  /// Watched directories may not exist yet; they are polled into
  /// existence.
  IngestService(std::vector<std::filesystem::path> dirs, IngestOptions opts);
  IngestService(const std::filesystem::path& dir, IngestOptions opts);

  /// One scan-and-ingest pass over the watched directories. Returns the
  /// number of shards folded (0 = nothing new; the caller's cue to
  /// sleep). Writes automatic checkpoints per Options::checkpoint_every.
  /// Throws only under CorruptPolicy::kStrict, after rolling the service
  /// back to its last checkpoint (vanished files are skipped silently).
  std::size_t poll_once();

  /// Writes a checkpoint now (atomic + CRC32C-framed), then claims the
  /// shards it covers when Options::claim is set. No-op state-wise if
  /// nothing changed since the last one (still rewrites the file).
  void checkpoint();

  /// The incremental aggregate, or nullptr before the first fold.
  const core::ThreadProfile* merged() const {
    return merged_ ? &*merged_ : nullptr;
  }

  IngestStats stats() const;

 private:
  void load_checkpoint();
  /// Discards the in-memory aggregate and re-loads the last durable
  /// checkpoint (or fresh state if none): the recovery move shared by
  /// process restart and a mid-merge poison shard.
  void rollback_to_checkpoint();
  /// Folds one shard's image (read_shard of `file`) through fold_shard
  /// and records the outcome; returns true when the shard was folded (vs
  /// skipped/quarantined/vanished).
  bool ingest_file(const std::filesystem::path& dir,
                   const std::filesystem::path& file,
                   const ShardImage& image);
  void note_skip(const std::filesystem::path& file, const std::string& why);
  /// Makes `listing_` the sorted listing of dirs_[i] (empty when the
  /// directory is missing).
  void list_dir(std::size_t i);

  std::vector<std::filesystem::path> dirs_;
  IngestOptions opts_;

  std::optional<core::ThreadProfile> merged_;
  /// Shards folded into `merged_` but not yet claimed: full path
  /// strings, exactly what the next checkpoint persists.
  std::unordered_set<std::string> manifest_;
  /// Shards that failed validation twice under kSkip — never retried.
  std::unordered_set<std::string> skipped_;
  std::size_t folds_since_checkpoint_ = 0;
  /// Set when a poison shard forced a rollback: the current poll batch
  /// is stale (rolled-back shards must re-fold in sorted order first).
  bool rolled_back_ = false;
  /// The last listing, of dirs_[listing_dir_]; entries from
  /// listing_next_ on are not yet visited. A poll bounded by
  /// max_files_per_poll resumes here instead of re-listing; a rollback
  /// drops it.
  std::vector<std::string> listing_;
  std::size_t listing_next_ = 0;
  std::size_t listing_dir_ = 0;

  IngestStats stats_;

  obs::Counter ctr_files_;
  obs::Counter ctr_bytes_;
  obs::Counter ctr_checkpoints_;
  obs::Counter ctr_resumes_;
  obs::Counter ctr_skipped_;
  obs::Counter ctr_claimed_;
};

}  // namespace dcprof::analysis
