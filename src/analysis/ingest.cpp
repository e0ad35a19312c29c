#include "analysis/ingest.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "binfmt/bytes.h"
#include "core/checksum.h"
#include "core/measurement.h"

namespace dcprof::analysis {

namespace fs = std::filesystem;

namespace {

// Checkpoint framing, in the house style of the `.dcpf` files it
// aggregates: a little-endian payload (binfmt/bytes.h) sealed by the
// footer of core::seal, so a torn or bit-flipped checkpoint is always
// detected before any of it is trusted.
constexpr std::uint32_t kCkMagic = 0x6463636bu;        // "dcck"
constexpr std::uint32_t kCkFooterMagic = 0x64636b74u;  // "dckt"
constexpr std::uint32_t kCkVersion = 1;

/// Cap on IngestStats::skip_reasons — `skipped` stays exact beyond it.
constexpr std::size_t kMaxSkipReports = 64;

}  // namespace

IngestService::IngestService(std::vector<fs::path> dirs, IngestOptions opts)
    : dirs_(std::move(dirs)),
      opts_(std::move(opts)),
      ctr_files_(obs::Registry::global().counter("ingest.files")),
      ctr_bytes_(obs::Registry::global().counter("ingest.bytes")),
      ctr_checkpoints_(obs::Registry::global().counter("ingest.checkpoints")),
      ctr_resumes_(obs::Registry::global().counter("ingest.resumes")),
      ctr_skipped_(obs::Registry::global().counter("ingest.skipped")),
      ctr_claimed_(obs::Registry::global().counter("ingest.claimed")) {
  if (opts_.checkpoint.empty()) {
    throw std::runtime_error("ingest: checkpoint path must be set");
  }
  load_checkpoint();
}

IngestService::IngestService(const fs::path& dir, IngestOptions opts)
    : IngestService(std::vector<fs::path>{dir}, std::move(opts)) {}

void IngestService::load_checkpoint() {
  std::error_code ec;
  if (!fs::exists(opts_.checkpoint, ec)) return;
  try {
    const std::string data = core::read_file(opts_.checkpoint);
    if (data.size() < core::kSealBytes) {
      throw std::runtime_error("truncated checkpoint");
    }
    // Footer first: nothing in the payload is trusted until the length
    // and CRC check out.
    if (const std::string why = core::check_seal(data, kCkFooterMagic);
        !why.empty()) {
      throw std::runtime_error(why);
    }

    binfmt::ByteReader r(core::sealed_payload(data), "checkpoint");
    const std::uint32_t magic = r.u32();
    const std::uint32_t version = r.u32();
    r.require("header");
    if (magic != kCkMagic) {
      throw std::runtime_error("bad checkpoint magic");
    }
    if (version != kCkVersion) {
      throw std::runtime_error("unsupported checkpoint version " +
                               std::to_string(version));
    }
    stats_.files = r.u64();
    stats_.bytes = r.u64();
    stats_.checkpoints = r.u64();
    stats_.resumes = r.u64();
    stats_.claimed = r.u64();
    const std::uint32_t manifest_count = r.u32();
    r.require("counters");
    for (std::uint32_t i = 0; i < manifest_count; ++i) {
      std::string key;
      r.str(key);
      // A checkpoint lists its shards *before* claiming them, so the
      // claims it then performed are only on disk as moved files. A
      // listed shard that is gone now was claimed (or cleaned up) after
      // the write: reconcile the count and drop the stale entry.
      std::error_code ec;
      if (fs::exists(fs::path(key), ec)) {
        manifest_.insert(std::move(key));
      } else {
        ++stats_.claimed;
      }
    }
    const bool has_profile = r.u8() != 0;
    r.require("aggregate flag");
    if (has_profile) {
      const std::uint64_t profile_size = r.u64();
      r.require("aggregate size");
      const std::string_view profile = r.view(profile_size);
      r.require("aggregate");
      merged_ = core::ThreadProfile::read(profile);
    }
    r.require_end();
  } catch (const std::exception& e) {
    // A checkpoint published through write_file_atomic is complete or
    // absent; anything unreadable means tampering or disk corruption.
    // Refuse to run rather than silently restart from zero and
    // double-count (or lose) claimed shards.
    throw std::runtime_error("corrupt ingest checkpoint " +
                             opts_.checkpoint.string() + ": " + e.what());
  }
  ++stats_.resumes;
  ctr_resumes_.inc();
}

void IngestService::rollback_to_checkpoint() {
  merged_.reset();
  manifest_.clear();
  folds_since_checkpoint_ = 0;
  // Fold-derived totals come back from the checkpoint (or stay zero
  // when none has been written yet — then nothing was ever claimed, so
  // zero is exact). Process-local observations (polls, skips, retries,
  // skip_reasons) survive the rewind: they record what this process
  // did, which the rollback does not undo.
  stats_.files = 0;
  stats_.bytes = 0;
  stats_.checkpoints = 0;
  stats_.resumes = 0;
  stats_.claimed = 0;
  listing_.clear();
  listing_next_ = 0;
  load_checkpoint();
}

void IngestService::list_dir(std::size_t i) {
  listing_.clear();
  listing_next_ = 0;
  listing_dir_ = i;
  std::error_code ec;
  // Watched directories may not exist yet (the fleet has not started
  // writing); that is idle, not an error.
  if (!fs::is_directory(dirs_[i], ec)) return;
  try {
    listing_ = core::list_profile_files(dirs_[i]);
  } catch (const std::exception&) {
    // The directory vanished between the check and the listing.
  }
}

std::size_t IngestService::poll_once() {
  ++stats_.polls;
  if (dirs_.empty()) return 0;
  std::size_t folded = 0;
  // A poll that stopped at max_files_per_poll left the rest of its
  // listing: resume there. A resumed poll runs on into one fresh pass
  // over every directory once that rest is used up, so a poll that
  // folds nothing has listed them all.
  bool fresh = listing_next_ == listing_.size();
  if (fresh) list_dir(0);
  for (;;) {
    while (listing_next_ < listing_.size()) {
      const std::size_t room = opts_.max_files_per_poll == 0
                                   ? listing_.size()
                                   : opts_.max_files_per_poll - folded;
      if (room == 0) return folded;
      // The next shards to fold, at most as many as the poll may still
      // fold, so the read-ahead reads nothing past the poll's bound. A
      // fold never adds a later entry of the listing to the manifest or
      // the skip set, so filtering ahead of the folds is exact.
      std::vector<std::string> batch;
      while (listing_next_ < listing_.size() && batch.size() < room) {
        std::string key = std::move(listing_[listing_next_++]);
        if (manifest_.count(key) != 0 || skipped_.count(key) != 0) continue;
        if (fs::path(key) == opts_.checkpoint) continue;
        batch.push_back(std::move(key));
      }
      ReadAhead reads(batch, hardware_workers());
      for (const std::string& key : batch) {
        if (ingest_file(dirs_[listing_dir_], fs::path(key), reads.next())) {
          ++folded;
          if (opts_.checkpoint_every != 0 &&
              ++folds_since_checkpoint_ >= opts_.checkpoint_every) {
            checkpoint();
          }
        }
        if (rolled_back_) {
          // A poison shard rewound the aggregate to the last checkpoint
          // and dropped the listing: un-checkpointed folds must re-enter
          // in sorted order before anything newer.
          rolled_back_ = false;
          return folded;
        }
      }
    }
    if (listing_dir_ + 1 < dirs_.size()) {
      list_dir(listing_dir_ + 1);
    } else if (!fresh) {
      fresh = true;
      list_dir(0);
    } else {
      return folded;
    }
  }
}

bool IngestService::ingest_file(const fs::path& dir, const fs::path& file,
                                const ShardImage& image) {
  ShardFold r;
  try {
    r = fold_shard(dir, file, image, merged_,
                   opts_.corrupt_policy, /*salvage=*/false);
  } catch (...) {
    // kStrict: the shard may have died part-way through its merge.
    // Leave the service at its last durable state, as a restart would.
    rollback_to_checkpoint();
    throw;
  }
  if (r.retried) ++stats_.transient_retries;
  switch (r.outcome) {
    case FoldOutcome::kFolded: {
      manifest_.insert(file.string());
      ++stats_.files;
      stats_.bytes += r.bytes;
      ctr_files_.inc();
      ctr_bytes_.add(r.bytes);
      return true;
    }
    case FoldOutcome::kVanished:
      return false;  // claimed or cleaned up by someone else: benign
    case FoldOutcome::kPoisoned:
      // Part of the shard reached the aggregate. Roll back to the last
      // durable checkpoint — the crash-recovery path; the clean shards
      // of this batch are still on disk and re-fold on the next poll.
      rollback_to_checkpoint();
      rolled_back_ = true;
      break;
    case FoldOutcome::kSalvaged:
    case FoldOutcome::kSkipped:
      break;
  }
  // Skipped for good: a quarantined shard left the directory; any other
  // is remembered so no later poll retries it.
  if (r.quarantined_to.empty()) {
    skipped_.insert(file.string());
  } else {
    ++stats_.quarantined;
  }
  ++stats_.skipped;
  ctr_skipped_.inc();
  note_skip(file, r.error);
  return false;
}

void IngestService::note_skip(const fs::path& file, const std::string& why) {
  if (stats_.skip_reasons.size() < kMaxSkipReports) {
    stats_.skip_reasons.push_back(file.string() + ": " + why);
  }
}

void IngestService::checkpoint() {
  // Persist only manifest entries whose shard is still in a watched
  // directory: everything else was already claimed (or cleaned up), so
  // resume cannot re-encounter it. This is what keeps the manifest —
  // and the checkpoint file — bounded by checkpoint_every rather than
  // by fleet size. Sorted so checkpoint bytes are deterministic.
  std::vector<std::string> live;
  live.reserve(manifest_.size());
  for (const std::string& key : manifest_) {
    std::error_code ec;
    if (fs::exists(fs::path(key), ec)) live.push_back(key);
  }
  std::sort(live.begin(), live.end());
  manifest_ = std::unordered_set<std::string>(live.begin(), live.end());

  ++stats_.checkpoints;
  using binfmt::put_u32;
  using binfmt::put_u64;
  std::string payload;
  put_u32(payload, kCkMagic);
  put_u32(payload, kCkVersion);
  put_u64(payload, stats_.files);
  put_u64(payload, stats_.bytes);
  put_u64(payload, stats_.checkpoints);
  put_u64(payload, stats_.resumes);
  put_u64(payload, stats_.claimed);
  put_u32(payload, static_cast<std::uint32_t>(live.size()));
  for (const std::string& key : live) binfmt::put_str(payload, key);
  binfmt::put_u8(payload, merged_ ? 1 : 0);
  if (merged_) {
    const std::string profile = merged_->serialize();
    put_u64(payload, profile.size());
    payload += profile;
  }
  core::seal(payload, kCkFooterMagic);
  core::write_file_atomic(opts_.checkpoint, payload);
  ctr_checkpoints_.inc();
  folds_since_checkpoint_ = 0;

  // Only now — with the manifest durable — may the shards it lists be
  // moved out of the watched directory. A crash in this loop just
  // leaves some of them behind for the next checkpoint to retire.
  if (opts_.claim) {
    for (const std::string& key : live) {
      const fs::path file(key);
      if (core::claim_profile_file(file.parent_path(), file)) {
        ++stats_.claimed;
        ctr_claimed_.inc();
      }
      // Claimed or vanished either way, the shard is no longer in the
      // directory; drop it from the manifest.
      manifest_.erase(key);
    }
  }
}

IngestStats IngestService::stats() const {
  IngestStats out = stats_;
  out.manifest = manifest_.size();
  return out;
}

}  // namespace dcprof::analysis
