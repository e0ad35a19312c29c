#include "analysis/ingest.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/checksum.h"
#include "core/mapped_file.h"
#include "core/measurement.h"

namespace dcprof::analysis {

namespace fs = std::filesystem;

namespace {

// Checkpoint framing, in the house style of the `.dcpf` files it
// aggregates: little-endian payload, then a footer of
// {magic, payload byte count, CRC32C(payload)} so a torn or bit-flipped
// checkpoint is always detected before any of it is trusted.
constexpr std::uint32_t kCkMagic = 0x6463636bu;        // "dcck"
constexpr std::uint32_t kCkFooterMagic = 0x64636b74u;  // "dckt"
constexpr std::uint32_t kCkVersion = 1;
constexpr std::size_t kCkFooterSize = 4 + 8 + 4;

/// Cap on IngestStats::skip_reasons — `skipped` stays exact beyond it.
constexpr std::size_t kMaxSkipReports = 64;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

/// Bounds-checked little-endian cursor over the mapped checkpoint bytes.
struct CkReader {
  std::string_view buf;
  std::size_t off = 0;

  void need(std::size_t n) const {
    if (buf.size() - off < n) {
      throw std::runtime_error("truncated checkpoint");
    }
  }
  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(buf[off++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    std::memcpy(&v, buf.data() + off, 4);
    off += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    std::memcpy(&v, buf.data() + off, 8);
    off += 8;
    return v;
  }
  std::string_view take(std::size_t n) {
    need(n);
    std::string_view v = buf.substr(off, n);
    off += n;
    return v;
  }
};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

IngestService::IngestService(std::vector<fs::path> dirs, IngestOptions opts)
    : dirs_(std::move(dirs)),
      opts_(std::move(opts)),
      ctr_files_(obs::Registry::global().counter("ingest.files")),
      ctr_bytes_(obs::Registry::global().counter("ingest.bytes")),
      ctr_checkpoints_(obs::Registry::global().counter("ingest.checkpoints")),
      ctr_resumes_(obs::Registry::global().counter("ingest.resumes")),
      ctr_skipped_(obs::Registry::global().counter("ingest.skipped")),
      ctr_claimed_(obs::Registry::global().counter("ingest.claimed")),
      gauge_rate_(obs::Registry::global().gauge("ingest.shards_per_sec")) {
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
    core::MappedFile map(opts_.checkpoint);
    const std::string_view bytes = map.bytes();
    if (bytes.size() < kCkFooterSize) {
      throw std::runtime_error("truncated checkpoint");
    }
    // Footer first: nothing in the payload is trusted until the length
    // and CRC check out.
    CkReader footer{bytes, bytes.size() - kCkFooterSize};
    if (footer.u32() != kCkFooterMagic) {
      throw std::runtime_error("bad checkpoint footer magic");
    }
    const std::uint64_t payload_size = footer.u64();
    if (payload_size != bytes.size() - kCkFooterSize) {
      throw std::runtime_error("checkpoint payload size mismatch");
    }
    const std::string_view payload = bytes.substr(0, payload_size);
    if (footer.u32() != core::crc32c(payload)) {
      throw std::runtime_error("checkpoint checksum mismatch");
    }

    CkReader r{payload};
    if (r.u32() != kCkMagic) {
      throw std::runtime_error("bad checkpoint magic");
    }
    if (const std::uint32_t version = r.u32(); version != kCkVersion) {
      throw std::runtime_error("unsupported checkpoint version " +
                               std::to_string(version));
    }
    stats_.files = r.u64();
    stats_.bytes = r.u64();
    stats_.checkpoints = r.u64();
    stats_.resumes = r.u64();
    stats_.claimed = r.u64();
    const std::uint32_t manifest_count = r.u32();
    for (std::uint32_t i = 0; i < manifest_count; ++i) {
      const std::uint32_t len = r.u32();
      std::string key(r.take(len));
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
    if (r.u8() != 0) {
      const std::uint64_t profile_size = r.u64();
      merged_ = core::ThreadProfile::read(r.take(profile_size));
    }
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
  load_checkpoint();
}

std::size_t IngestService::poll_once() {
  ++stats_.polls;
  std::size_t folded = 0;
  for (const fs::path& dir : dirs_) {
    std::error_code ec;
    // Watched directories may not exist yet (the fleet has not started
    // writing); that is idle, not an error.
    if (!fs::is_directory(dir, ec)) continue;
    std::vector<fs::path> files;
    try {
      files = core::list_profile_files(dir);
    } catch (const std::exception&) {
      continue;  // directory vanished between the check and the listing
    }
    for (const fs::path& file : files) {
      if (opts_.max_files_per_poll != 0 &&
          folded >= opts_.max_files_per_poll) {
        update_rate_gauge();
        return folded;
      }
      if (file == opts_.checkpoint) continue;
      const std::string key = file.string();
      if (manifest_.count(key) != 0 || skipped_.count(key) != 0) continue;
      if (ingest_file(dir, file)) {
        ++folded;
        if (opts_.checkpoint_every != 0 &&
            ++folds_since_checkpoint_ >= opts_.checkpoint_every) {
          checkpoint();
        }
      }
      if (rolled_back_) {
        // A poison shard rewound the aggregate to the last checkpoint:
        // the rest of this poll's listing is stale (un-checkpointed
        // folds must re-enter in sorted order before anything newer).
        rolled_back_ = false;
        update_rate_gauge();
        return folded;
      }
    }
  }
  update_rate_gauge();
  return folded;
}

bool IngestService::ingest_file(const fs::path& dir, const fs::path& file) {
  ShardFold r;
  try {
    r = fold_shard(dir, file, merged_, opts_.corrupt_policy,
                   /*salvage=*/false);
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
      const std::uint64_t now = now_ns();
      if (first_fold_ns_ == 0) first_fold_ns_ = now;
      last_fold_ns_ = now;
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
  std::string payload;
  put_u32(payload, kCkMagic);
  put_u32(payload, kCkVersion);
  put_u64(payload, stats_.files);
  put_u64(payload, stats_.bytes);
  put_u64(payload, stats_.checkpoints);
  put_u64(payload, stats_.resumes);
  put_u64(payload, stats_.claimed);
  put_u32(payload, static_cast<std::uint32_t>(live.size()));
  for (const std::string& key : live) {
    put_u32(payload, static_cast<std::uint32_t>(key.size()));
    payload += key;
  }
  put_u8(payload, merged_ ? 1 : 0);
  if (merged_) {
    std::ostringstream buf;
    merged_->write(buf);
    const std::string profile_bytes = std::move(buf).str();
    put_u64(payload, profile_bytes.size());
    payload += profile_bytes;
  }
  const std::uint64_t payload_size = payload.size();
  const std::uint32_t crc = core::crc32c(payload);
  put_u32(payload, kCkFooterMagic);
  put_u64(payload, payload_size);
  put_u32(payload, crc);
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
  update_rate_gauge();
}

IngestStats IngestService::stats() const {
  IngestStats out = stats_;
  out.manifest = manifest_.size();
  return out;
}

double IngestService::shards_per_sec() const {
  if (last_fold_ns_ <= first_fold_ns_) return 0.0;
  // ctr_files_ is this process's private cell: exactly the folds this
  // service performed since start, excluding checkpoint-restored totals.
  const double folds = static_cast<double>(ctr_files_.value());
  const double secs =
      static_cast<double>(last_fold_ns_ - first_fold_ns_) / 1e9;
  return folds / secs;
}

void IngestService::update_rate_gauge() {
  gauge_rate_.set(static_cast<std::uint64_t>(shards_per_sec()));
}

}  // namespace dcprof::analysis
