// The continuous-ingestion service (analysis/ingest.h): drained
// aggregates are byte-identical to a one-shot batch Analyzer::run,
// shards fold incrementally as they arrive, checkpoints survive kills at
// randomized points (the daemon "dies" by destruction, which — by
// design — writes nothing), a torn or bit-flipped checkpoint is rejected
// at every byte, claimed shards retire into ingested/ with a bounded
// manifest, and corrupt shards follow the analyzer's corrupt policies.
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ingest.h"
#include "analysis/pipeline.h"
#include "binfmt/load_module.h"
#include "core/measurement.h"
#include "core/profile.h"
#include "obs/registry.h"
#include "support/dcpf.h"
#include "support/rng.h"
#include "verify/invariants.h"

namespace dcprof::analysis {
namespace {

namespace fs = std::filesystem;

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;
using test::Rng;
using test::seed_note;

struct TempDir {
  TempDir() {
    path = fs::temp_directory_path() /
           ("dcprof-ingest-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  fs::path path;
  static int counter;
};
int TempDir::counter = 0;

MetricVec metrics(std::uint64_t samples, std::uint64_t remote = 0,
                  std::uint64_t latency = 0) {
  MetricVec m;
  m[Metric::kSamples] = samples;
  m[Metric::kRemoteDram] = remote;
  m[Metric::kLatency] = latency;
  return m;
}

ThreadProfile make_profile(std::uint64_t i) {
  ThreadProfile p;
  p.rank = static_cast<std::int32_t>(i / 8);
  p.tid = static_cast<std::int32_t>(i % 8);

  Cct& heap = p.cct(StorageClass::kHeap);
  for (std::uint64_t v = 0; v <= i % 3; ++v) {
    auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, 0x10 + v);
    cur = heap.child(cur, NodeKind::kAllocPoint, 0x99);
    cur = heap.child(cur, NodeKind::kVarData, 0);
    heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x500 + v),
                     metrics(i + 1, i % 5, 10 * (i + 1)));
  }

  Cct& stat = p.cct(StorageClass::kStatic);
  const auto d = stat.child(Cct::kRootId, NodeKind::kVarStatic,
                            p.strings.intern("g_table_" + std::to_string(i)));
  stat.add_metrics(stat.child(d, NodeKind::kLeafInstr, 0x600),
                   metrics(2, 1, 7));

  Cct& unknown = p.cct(StorageClass::kUnknown);
  unknown.add_metrics(
      unknown.child(Cct::kRootId, NodeKind::kLeafInstr, 0x900 + i % 4),
      metrics(i % 3 + 1, 0, i));
  return p;
}

std::string serialized(const ThreadProfile& p) {
  std::ostringstream out;
  p.write(out);
  return std::move(out).str();
}

/// Zero-padded so lexicographic listing order equals shard number order.
std::string shard_name(std::uint64_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "profile-%04llu-0.dcpf",
                static_cast<unsigned long long>(i));
  return name;
}

void write_structure(const fs::path& dir) {
  fs::create_directories(dir);
  binfmt::ModuleRegistry no_modules;
  std::ostringstream buf;
  binfmt::StructureData::capture(no_modules).write(buf);
  core::write_file_atomic(dir / "structure.dcst", std::move(buf).str());
}

void write_shard(const fs::path& dir, std::uint64_t i) {
  core::write_file_atomic(dir / shard_name(i), serialized(make_profile(i)));
}

/// A complete synthetic fleet drop: structure + shards [0, n) in `dir`
/// (and, when given, an identical pristine copy for batch comparison).
void write_fleet(const fs::path& dir, std::size_t n,
                 const fs::path* copy = nullptr) {
  write_structure(dir);
  if (copy) write_structure(*copy);
  for (std::size_t i = 0; i < n; ++i) {
    write_shard(dir, i);
    if (copy) write_shard(*copy, i);
  }
}

/// The ground truth every ingestion run must reproduce: a one-shot,
/// single-worker batch analysis of the same shards.
std::string batch_merged_bytes(const fs::path& dir) {
  const Analyzer batch(
      Analyzer::Options{}.with_workers(1).with_views(kViewNone));
  return serialized(batch.run(dir).merged);
}

IngestOptions opts_for(const fs::path& dir) {
  IngestOptions o;
  o.checkpoint = dir / "ingest.dcck";
  return o;
}

std::size_t count_files(const fs::path& dir, const char* ext) {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec); !ec && it != fs::directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec) && it->path().extension() == ext) ++n;
  }
  return n;
}

TEST(Ingest, DrainedAggregateByteIdenticalToBatch) {
  TempDir dir;
  write_fleet(dir.path, 17);
  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;  // leave the shards for the batch run below
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 17u);
  EXPECT_EQ(service.poll_once(), 0u);  // everything is in the manifest now
  ASSERT_NE(service.merged(), nullptr);
  EXPECT_EQ(serialized(*service.merged()), batch_merged_bytes(dir.path));
  const IngestStats st = service.stats();
  EXPECT_EQ(st.files, 17u);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_EQ(st.skipped, 0u);
  EXPECT_EQ(st.resumes, 0u);
}

TEST(Ingest, IncrementalArrivalsMatchBatch) {
  TempDir dir;
  TempDir pristine;
  write_structure(dir.path);
  write_structure(pristine.path);
  IngestOptions opts = opts_for(dir.path);
  IngestService service(dir.path, opts);
  // Three waves, arriving in shard order like a live fleet.
  std::uint64_t next = 0;
  for (const std::size_t wave : {4u, 7u, 2u}) {
    for (std::size_t i = 0; i < wave; ++i, ++next) {
      write_shard(dir.path, next);
      write_shard(pristine.path, next);
    }
    EXPECT_EQ(service.poll_once(), wave);
  }
  service.checkpoint();
  ASSERT_NE(service.merged(), nullptr);
  EXPECT_EQ(serialized(*service.merged()), batch_merged_bytes(pristine.path));
}

TEST(Ingest, WatchedDirMayNotExistYet) {
  TempDir dir;
  TempDir ck;
  fs::create_directories(ck.path);
  IngestOptions opts;
  opts.checkpoint = ck.path / "ingest.dcck";
  IngestService service(dir.path / "not-yet", opts);
  EXPECT_EQ(service.poll_once(), 0u);  // idle, not an error
  fs::create_directories(dir.path / "not-yet");
  write_shard(dir.path / "not-yet", 3);
  EXPECT_EQ(service.poll_once(), 1u);
  EXPECT_NE(service.merged(), nullptr);
}

// The crash/resume centerpiece: kill the daemon at randomized points
// (destruction never checkpoints — exactly a SIGKILL as far as durable
// state is concerned), restart from the checkpoint, and require the
// final aggregate byte-identical to the one-shot batch run. Claiming is
// on, so this also proves no shard is claimed before its fold is
// durable (a premature claim would lose the shard and change the
// bytes).
TEST(Ingest, KillAndResumeAtRandomPointsIsByteIdentical) {
  constexpr std::size_t kShards = 40;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE(seed_note(seed));
    Rng rng(seed);
    TempDir dir;
    TempDir pristine;
    write_fleet(dir.path, kShards, &pristine.path);

    std::string final_bytes;
    std::uint64_t resumes = 0;
    for (int attempt = 0; attempt < 200; ++attempt) {
      IngestOptions opts = opts_for(dir.path);
      opts.checkpoint_every = 1 + rng.next(6);
      opts.max_files_per_poll = 1 + rng.next(7);
      IngestService service(dir.path, opts);
      resumes = service.stats().resumes;
      // Poll a random number of times, then "die" without checkpointing.
      const std::uint64_t polls = 1 + rng.next(3);
      std::size_t folded = 0;
      for (std::uint64_t i = 0; i < polls; ++i) folded += service.poll_once();
      if (folded == 0 && service.stats().files == kShards) {
        service.checkpoint();
        final_bytes = serialized(*service.merged());
        break;
      }
    }
    ASSERT_FALSE(final_bytes.empty()) << "ingestion never converged";
    EXPECT_GT(resumes, 0u) << "test never actually resumed";
    EXPECT_EQ(final_bytes, batch_merged_bytes(pristine.path));
    // Everything was durably ingested, so everything was retired.
    EXPECT_EQ(count_files(dir.path, ".dcpf"), 0u);
    EXPECT_EQ(count_files(dir.path / core::kIngestedDirName, ".dcpf"),
              kShards);
  }
}

TEST(Ingest, StatsSurviveCheckpointAndResume) {
  TempDir dir;
  write_fleet(dir.path, 9);
  IngestOptions opts = opts_for(dir.path);
  opts.checkpoint_every = 4;
  {
    IngestService service(dir.path, opts);
    service.poll_once();
    service.checkpoint();
  }
  IngestService resumed(dir.path, opts);
  const IngestStats st = resumed.stats();
  EXPECT_EQ(st.files, 9u);
  EXPECT_GT(st.bytes, 0u);
  EXPECT_GE(st.checkpoints, 3u);  // two automatic + one explicit
  EXPECT_EQ(st.resumes, 1u);
  EXPECT_EQ(st.claimed, 9u);
  EXPECT_EQ(resumed.poll_once(), 0u);  // nothing left to ingest
}

// Every-byte torn-checkpoint sweep, in the style of the .dcpf
// truncation sweep: no prefix of a valid checkpoint may load, and a
// bit flip anywhere must be caught by the CRC.
TEST(Ingest, TruncatedOrCorruptCheckpointRejectedEveryByte) {
  TempDir dir;
  write_fleet(dir.path, 3);
  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;
  {
    IngestService service(dir.path, opts);
    service.poll_once();
    service.checkpoint();
  }
  std::string bytes;
  {
    std::ifstream in(opts.checkpoint, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = std::move(buf).str();
  }
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    std::ofstream out(opts.checkpoint, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_THROW(IngestService(dir.path, opts), std::runtime_error)
        << "truncated checkpoint of " << cut << "/" << bytes.size()
        << " bytes must not load";
  }
  for (std::size_t flip = 0; flip < bytes.size(); flip += 7) {
    std::string corrupt = bytes;
    corrupt[flip] = static_cast<char>(corrupt[flip] ^ 0x40);
    std::ofstream out(opts.checkpoint, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    EXPECT_THROW(IngestService(dir.path, opts), std::runtime_error)
        << "bit flip at offset " << flip << " must not load";
  }
  // The intact bytes load fine.
  std::ofstream out(opts.checkpoint, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.stats().files, 3u);
}

TEST(Ingest, ClaimRetiresShardsAndBoundsManifest) {
  TempDir dir;
  write_fleet(dir.path, 20);
  IngestOptions opts = opts_for(dir.path);
  opts.checkpoint_every = 4;
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 20u);
  // Mid-run the manifest never outgrows one checkpoint interval.
  EXPECT_LE(service.stats().manifest, 4u);
  service.checkpoint();
  EXPECT_EQ(service.stats().manifest, 0u);
  EXPECT_EQ(service.stats().claimed, 20u);
  EXPECT_EQ(count_files(dir.path, ".dcpf"), 0u);
  EXPECT_EQ(count_files(dir.path / core::kIngestedDirName, ".dcpf"), 20u);
  // The structure file is not a shard and must not be touched.
  EXPECT_TRUE(fs::exists(dir.path / "structure.dcst"));
}

TEST(Ingest, CorruptShardSkippedOncePolicySkip) {
  TempDir dir;
  write_fleet(dir.path, 5);
  core::write_file_atomic(dir.path / "profile-9999-0.dcpf",
                          serialized(make_profile(7)).substr(0, 31));
  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 5u);
  const IngestStats st = service.stats();
  EXPECT_EQ(st.skipped, 1u);
  ASSERT_EQ(st.skip_reasons.size(), 1u);
  EXPECT_NE(st.skip_reasons[0].find("profile-9999-0.dcpf"), std::string::npos);
  // Skipped means skipped once: the next poll must not revisit it.
  EXPECT_EQ(service.poll_once(), 0u);
  EXPECT_EQ(service.stats().skipped, 1u);
  // The aggregate contains exactly the valid shards.
  EXPECT_EQ(st.files, 5u);
}

TEST(Ingest, PoisonShardRollsBackToCheckpointAndRecovers) {
  TempDir dir;
  TempDir pristine;
  write_fleet(dir.path, 8, &pristine.path);
  // Shard 3 turns poison: checksum intact, structure truncated. The
  // pristine batch reference simply never contains it.
  core::write_file_atomic(dir.path / shard_name(3),
                          test::poisoned_shard(serialized(make_profile(3))));
  fs::remove(pristine.path / shard_name(3));

  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;
  opts.checkpoint_every = 2;  // a durable checkpoint exists before the poison
  IngestService service(dir.path, opts);
  while (service.poll_once() != 0) {
  }

  const IngestStats st = service.stats();
  EXPECT_EQ(st.files, 7u);
  EXPECT_EQ(st.skipped, 1u);
  ASSERT_EQ(st.skip_reasons.size(), 1u);
  EXPECT_NE(st.skip_reasons[0].find(shard_name(3)), std::string::npos);
  // The mid-merge failure rewound to the last checkpoint — the same
  // code path as a process restart, so it counts as a resume.
  EXPECT_GE(st.resumes, 1u);
  // The clean shards re-folded in sorted order: the aggregate is
  // byte-identical to a batch run that never saw the poison shard.
  ASSERT_NE(service.merged(), nullptr);
  EXPECT_EQ(serialized(*service.merged()), batch_merged_bytes(pristine.path));
}

// A well-framed shard of a version this build does not read (here a
// future v5) is rejected by the framing check, before any merge: it is a
// plain skip, not a poison shard, so no rollback and no resume.
TEST(Ingest, ForeignVersionShardIsSkippedWithoutRollback) {
  TempDir dir;
  write_fleet(dir.path, 4);
  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;
  opts.checkpoint_every = 2;  // a durable checkpoint exists before it
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 4u);
  core::write_file_atomic(
      dir.path / shard_name(4),
      test::with_version(serialized(make_profile(4)), 5));
  EXPECT_EQ(service.poll_once(), 0u);
  const IngestStats st = service.stats();
  EXPECT_EQ(st.files, 4u);
  EXPECT_EQ(st.skipped, 1u);
  EXPECT_EQ(st.resumes, 0u);
  ASSERT_EQ(st.skip_reasons.size(), 1u);
  EXPECT_NE(st.skip_reasons[0].find("unsupported profile version 5"),
            std::string::npos)
      << st.skip_reasons[0];
}

TEST(Ingest, CorruptShardQuarantinedUnderQuarantinePolicy) {
  TempDir dir;
  write_fleet(dir.path, 3);
  core::write_file_atomic(dir.path / "profile-9999-0.dcpf", "not a profile");
  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;
  opts.corrupt_policy = CorruptPolicy::kQuarantine;
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 3u);
  EXPECT_EQ(service.stats().quarantined, 1u);
  EXPECT_FALSE(fs::exists(dir.path / "profile-9999-0.dcpf"));
  EXPECT_TRUE(fs::exists(dir.path / core::kQuarantineDirName /
                         "profile-9999-0.dcpf"));
}

TEST(Ingest, CorruptShardThrowsUnderStrictPolicy) {
  TempDir dir;
  write_structure(dir.path);
  core::write_file_atomic(dir.path / "profile-0000-0.dcpf", "garbage");
  IngestOptions opts = opts_for(dir.path);
  opts.corrupt_policy = CorruptPolicy::kStrict;
  IngestService service(dir.path, opts);
  EXPECT_THROW(service.poll_once(), std::runtime_error);
}

TEST(Ingest, EmptyShardFileIsCorrupt) {
  TempDir dir;
  write_fleet(dir.path, 2);
  core::write_file_atomic(dir.path / "profile-9999-0.dcpf", "");
  IngestOptions opts = opts_for(dir.path);
  opts.claim = false;
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 2u);
  EXPECT_EQ(service.stats().skipped, 1u);
}

// Shards that arrive out of name order fold in a different order than
// the batch analyzer's sorted listing, which legitimately renumbers CCT
// nodes — the aggregates must still be canonically equal.
TEST(Ingest, OutOfOrderArrivalsCanonicallyEqualBatch) {
  TempDir dir;
  TempDir pristine;
  write_structure(dir.path);
  write_structure(pristine.path);
  for (std::uint64_t i = 0; i < 10; ++i) write_shard(pristine.path, i);
  IngestOptions opts = opts_for(dir.path);
  IngestService service(dir.path, opts);
  for (std::uint64_t i = 5; i < 10; ++i) write_shard(dir.path, i);
  EXPECT_EQ(service.poll_once(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) write_shard(dir.path, i);
  EXPECT_EQ(service.poll_once(), 5u);
  const Analyzer batch(
      Analyzer::Options{}.with_workers(1).with_views(kViewNone));
  const ThreadProfile merged = batch.run(pristine.path).merged;
  std::string why;
  ASSERT_NE(service.merged(), nullptr);
  EXPECT_TRUE(verify::canonical_equal(*service.merged(), merged, &why)) << why;
}

TEST(Ingest, MultipleWatchedDirectories) {
  TempDir a;
  TempDir b;
  write_structure(a.path);
  write_structure(b.path);
  for (std::uint64_t i = 0; i < 3; ++i) write_shard(a.path, i);
  for (std::uint64_t i = 3; i < 8; ++i) write_shard(b.path, i);
  IngestOptions opts = opts_for(a.path);
  IngestService service(std::vector<fs::path>{a.path, b.path}, opts);
  EXPECT_EQ(service.poll_once(), 8u);
  service.checkpoint();
  // Each shard retired into its own directory's ingested/.
  EXPECT_EQ(count_files(a.path / core::kIngestedDirName, ".dcpf"), 3u);
  EXPECT_EQ(count_files(b.path / core::kIngestedDirName, ".dcpf"), 5u);
}

TEST(Ingest, ObsCountersTrackIngestion) {
  obs::Snapshot before = obs::Registry::global().snapshot();
  TempDir dir;
  write_fleet(dir.path, 6);
  IngestOptions opts = opts_for(dir.path);
  IngestService service(dir.path, opts);
  service.poll_once();
  service.checkpoint();
  obs::Snapshot after = obs::Registry::global().snapshot();
  EXPECT_EQ(after.value("ingest.files") - before.value("ingest.files"), 6u);
  EXPECT_GT(after.value("ingest.bytes"), before.value("ingest.bytes"));
  EXPECT_GT(after.value("ingest.checkpoints"),
            before.value("ingest.checkpoints"));
  EXPECT_EQ(after.value("ingest.claimed") - before.value("ingest.claimed"),
            6u);
}

TEST(Ingest, MissingCheckpointPathRejected) {
  TempDir dir;
  EXPECT_THROW(IngestService(dir.path, IngestOptions{}), std::runtime_error);
}

}  // namespace
}  // namespace dcprof::analysis
