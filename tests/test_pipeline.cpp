// Streaming analysis pipeline: Analyzer::run must produce a merged
// profile byte-identical to the load-all reduce() path while holding one
// profile resident, at any worker count, and skip-and-count corrupt,
// poisoned and vanished files; the read-ahead behind it hands images
// over in listing order and leaves no reader running. Also checks that the profiler's attach_pmu /
// attach_allocator hooks deliver samples.
#include "analysis/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "analysis/merge.h"
#include "core/measurement.h"
#include "core/profiler.h"
#include "rt/team.h"
#include "support/dcpf.h"
#include "support/threads.h"

namespace dcprof::analysis {
namespace {

namespace fs = std::filesystem;

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

/// The file name of a `list_profile_files` entry (a full path string):
/// what every error and report line about that shard names.
std::string name_of(const std::string& listed) {
  return fs::path(listed).filename().string();
}

struct TempDir {
  TempDir() {
    path = fs::temp_directory_path() /
           ("dcprof-pipeline-" + std::to_string(::getpid()) + "-" +
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

/// A synthetic per-thread profile with per-index variety: overlapping
/// and distinct heap allocation paths, static variables whose names are
/// interned in different orders across profiles (exercising the string
/// remap), and unknown-class samples.
ThreadProfile make_profile(std::uint64_t i) {
  ThreadProfile p;
  p.rank = static_cast<std::int32_t>(i / 8);
  p.tid = static_cast<std::int32_t>(i % 8);
  const std::string shared = "shared_" + std::to_string(i % 3);
  const std::string common = "common";
  if (i % 2 == 1) p.strings.intern(common);  // vary interning order

  Cct& heap = p.cct(StorageClass::kHeap);
  for (std::uint64_t v = 0; v <= i % 4; ++v) {
    auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite,
                          0x10 + (i + v) % 5);
    cur = heap.child(cur, NodeKind::kAllocPoint, 0x99 + v % 2);
    cur = heap.child(cur, NodeKind::kVarData, 0);
    const auto leaf = heap.child(cur, NodeKind::kLeafInstr, 0x500 + v);
    heap.add_metrics(leaf, metrics(i + 1, i % 5, 10 * (i + 1)));
  }

  Cct& stat = p.cct(StorageClass::kStatic);
  const auto d1 =
      stat.child(Cct::kRootId, NodeKind::kVarStatic, p.strings.intern(shared));
  stat.add_metrics(stat.child(d1, NodeKind::kLeafInstr, 0x600),
                   metrics(1, 0, 5));
  const auto d2 =
      stat.child(Cct::kRootId, NodeKind::kVarStatic, p.strings.intern(common));
  stat.add_metrics(stat.child(d2, NodeKind::kLeafInstr, 0x601 + i % 2),
                   metrics(2, 1, 7));

  Cct& unknown = p.cct(StorageClass::kUnknown);
  unknown.add_metrics(
      unknown.child(Cct::kRootId, NodeKind::kLeafInstr, 0x900 + i % 7),
      metrics(i % 3 + 1, 0, i));
  return p;
}

void write_synthetic_dir(const fs::path& dir, std::size_t n) {
  std::vector<ThreadProfile> profiles;
  profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) profiles.push_back(make_profile(i));
  binfmt::ModuleRegistry no_modules;
  core::write_measurement_dir(dir, profiles,
                              binfmt::StructureData::capture(no_modules));
}

std::string serialized(const ThreadProfile& p) {
  std::ostringstream out;
  p.write(out);
  return std::move(out).str();
}

/// Load-all baseline via the streaming surface: every profile in
/// `list_profile_files` order.
std::vector<ThreadProfile> read_all_profiles(const fs::path& dir) {
  std::vector<ThreadProfile> out;
  for (const auto& path : core::list_profile_files(dir)) {
    out.push_back(core::read_profile_file(path));
  }
  return out;
}

std::string read_profile_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void truncate_file(const fs::path& path) {
  const std::string bytes = read_profile_bytes(path);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
}

void scribble_magic(const fs::path& path) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.write("\xff\xff\xff\xff", 4);
}

TEST(Pipeline, StreamingMatchesReduceByteIdentically) {
  for (const std::size_t n : {1ul, 2ul, 17ul, 64ul}) {
    TempDir dir;
    write_synthetic_dir(dir.path, n);
    const std::string expected =
        serialized(reduce(read_all_profiles(dir.path)));
    for (const int workers : {1, 4}) {
      Analyzer::Options opts;
      opts.workers = workers;
      const AnalysisResult r = Analyzer(opts).run(dir.path);
      EXPECT_EQ(serialized(r.merged), expected)
          << n << " profiles, " << workers << " workers";
      EXPECT_EQ(r.files_discovered, n);
      EXPECT_EQ(r.files_read, n);
      EXPECT_EQ(r.files_skipped, 0u);
      EXPECT_LE(r.peak_resident_profiles,
                static_cast<std::size_t>(workers) + 1)
          << n << " profiles, " << workers << " workers";
      EXPECT_GE(r.peak_resident_profiles, 1u);
    }
  }
}

TEST(Pipeline, PeakResidencyStaysBoundedOnLargeDirectories) {
  TempDir dir;
  write_synthetic_dir(dir.path, 64);
  Analyzer::Options opts;
  opts.workers = 4;
  const AnalysisResult r = Analyzer(opts).run(dir.path);
  EXPECT_EQ(r.files_read, 64u);
  EXPECT_LE(r.peak_resident_profiles, 5u);  // workers + 1
  EXPECT_EQ(r.workers_used, 4);
  // Beside the aggregate, at most the read-ahead's window of images, in
  // buffers that each grew to at most twice the largest shard.
  const std::size_t window = 3 * kImagesPerReader;
  EXPECT_GE(r.peak_resident_images, 1u);
  EXPECT_LE(r.peak_resident_images, window);
  std::uintmax_t largest = 0;
  for (const auto& f : core::list_profile_files(dir.path)) {
    largest = std::max(largest, fs::file_size(f));
  }
  EXPECT_GE(r.image_buffer_bytes, largest);
  EXPECT_LE(r.image_buffer_bytes, window * 2 * largest);
  EXPECT_GT(r.bytes_streamed, 0u);
  EXPECT_GE(r.timings.total_ms, 0.0);
}

TEST(Pipeline, WorkersAreClampedToFileCount) {
  TempDir dir;
  write_synthetic_dir(dir.path, 2);
  Analyzer::Options opts;
  opts.workers = 16;
  const AnalysisResult r = Analyzer(opts).run(dir.path);
  EXPECT_EQ(r.workers_used, 2);
  EXPECT_EQ(r.files_read, 2u);
}

TEST(Pipeline, CorruptFilesAreSkippedAndCounted) {
  TempDir dir;
  write_synthetic_dir(dir.path, 8);
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 8u);
  truncate_file(files[2]);
  scribble_magic(files[5]);
  // An empty shard, listed after the others.
  const fs::path empty = dir.path / "profile-1-0.dcpf";
  std::ofstream(empty, std::ios::binary).close();

  // Expected: reduce over the still-readable files only.
  std::vector<ThreadProfile> good;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i == 2 || i == 5) continue;
    good.push_back(core::read_profile_file(files[i]));
  }
  const std::string expected = serialized(reduce(std::move(good)));

  for (const int workers : {1, 3}) {
    Analyzer::Options opts;
    opts.workers = workers;
    const AnalysisResult r = Analyzer(opts).run(dir.path);
    EXPECT_EQ(r.files_discovered, 9u);
    EXPECT_EQ(r.files_read, 6u);
    EXPECT_EQ(r.files_skipped, 3u);
    ASSERT_EQ(r.skipped.size(), 3u);
    EXPECT_NE(r.skipped[0].find(name_of(files[2])),
              std::string::npos);
    EXPECT_NE(r.skipped[1].find(name_of(files[5])),
              std::string::npos);
    EXPECT_NE(r.skipped[2].find(empty.filename().string()),
              std::string::npos);
    EXPECT_EQ(serialized(r.merged), expected) << workers << " workers";
  }
}

TEST(Pipeline, StrictModeThrowsNamingTheCorruptFile) {
  TempDir dir;
  write_synthetic_dir(dir.path, 4);
  const auto files = core::list_profile_files(dir.path);
  truncate_file(files[1]);
  Analyzer::Options opts;
  opts.corrupt_policy = CorruptPolicy::kStrict;
  try {
    Analyzer(opts).run(dir.path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(name_of(files[1])),
              std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, AllCorruptThrows) {
  TempDir dir;
  write_synthetic_dir(dir.path, 3);
  for (const auto& f : core::list_profile_files(dir.path)) scribble_magic(f);
  EXPECT_THROW(Analyzer().run(dir.path), std::runtime_error);
}

TEST(Pipeline, MissingDirectoryAndEmptyDirectoryThrow) {
  EXPECT_THROW(Analyzer().run("/nonexistent/dcprof-dir"),
               std::runtime_error);
  TempDir dir;
  binfmt::ModuleRegistry no_modules;
  core::write_measurement_dir(dir.path, {},
                              binfmt::StructureData::capture(no_modules));
  EXPECT_THROW(Analyzer().run(dir.path), std::runtime_error);
}

TEST(Pipeline, ViewSelectionAndTopNAreHonored) {
  TempDir dir;
  write_synthetic_dir(dir.path, 12);

  Analyzer::Options none;
  none.views = kViewNone;
  const AnalysisResult quiet = Analyzer(none).run(dir.path);
  EXPECT_TRUE(quiet.variables.empty());
  EXPECT_TRUE(quiet.hot_accesses.empty());
  EXPECT_TRUE(quiet.functions.empty());
  EXPECT_TRUE(quiet.threads.empty());

  Analyzer::Options all;
  all.views = kViewAll;
  all.top_n = 2;
  all.sort_metric = Metric::kSamples;
  const AnalysisResult r = Analyzer(all).run(dir.path);
  EXPECT_LE(r.variables.size(), 2u);
  EXPECT_LE(r.hot_accesses.size(), 2u);
  EXPECT_LE(r.functions.size(), 2u);
  EXPECT_EQ(r.threads.size(), 12u);
  EXPECT_GT(r.summary.grand[Metric::kSamples], 0u);
}

TEST(Pipeline, OptionsBuilderChainsAndAggregateInitStillWorks) {
  // add_views ORs into the view mask and chains; every other option is
  // a field assigned directly.
  Analyzer::Options built;
  built.views = kViewSummary;
  built.add_views(kViewAdvice).add_views(kViewThreads);
  EXPECT_EQ(built.views, kViewSummary | kViewAdvice | kViewThreads);

  // Options must remain an aggregate: designated initialization of a
  // subset of fields (as existing call sites do) still compiles.
  const Analyzer::Options aggregate{.workers = 2, .top_n = 5};
  EXPECT_EQ(aggregate.workers, 2);
  EXPECT_EQ(aggregate.top_n, 5u);
  EXPECT_EQ(aggregate.sort_metric, Metric::kLatency);  // default survives

  // An aggregate-initialized Analyzer produces the same result as one
  // configured by field assignment.
  TempDir dir;
  write_synthetic_dir(dir.path, 4);
  Analyzer::Options direct;
  direct.workers = 2;
  direct.top_n = 5;
  const AnalysisResult a = Analyzer(direct).run(dir.path);
  const AnalysisResult b = Analyzer(aggregate).run(dir.path);
  EXPECT_EQ(serialized(a.merged), serialized(b.merged));
  EXPECT_EQ(a.variables.size(), b.variables.size());
  EXPECT_EQ(a.workers_used, b.workers_used);
}

TEST(Pipeline, ThreadRowsMatchPreMergeProfiles) {
  TempDir dir;
  write_synthetic_dir(dir.path, 6);
  Analyzer::Options opts;
  opts.workers = 2;
  const AnalysisResult r = Analyzer(opts).run(dir.path);
  const auto expected = thread_table(read_all_profiles(dir.path));
  ASSERT_EQ(r.threads.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(r.threads[i].rank, expected[i].rank) << i;
    EXPECT_EQ(r.threads[i].tid, expected[i].tid) << i;
    EXPECT_EQ(r.threads[i].metrics.v, expected[i].metrics.v) << i;
  }
}

// A racing quarantine or claim can remove a listed file before its
// worker maps it. The run carries on (the file is listed as skipped)
// unless the policy is strict, which names the file.
TEST(Pipeline, FileVanishingAfterListingIsSkippedNotFatal) {
  TempDir dir;
  write_synthetic_dir(dir.path, 5);
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 5u);
  std::vector<ThreadProfile> rest;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i != 3) rest.push_back(core::read_profile_file(files[i]));
  }
  const std::string expected = serialized(reduce(std::move(rest)));
  const std::string victim = read_profile_bytes(files[3]);

  for (const CorruptPolicy policy :
       {CorruptPolicy::kSkip, CorruptPolicy::kQuarantine,
        CorruptPolicy::kStrict}) {
    core::write_file_atomic(files[3], victim);
    Analyzer::Options opts;
    opts.workers = 1;
    opts.corrupt_policy = policy;
    // After the first file folds, a "concurrent claimer" takes file 3.
    opts.progress = [&](std::size_t done, std::size_t) {
      if (done == 1) fs::remove(files[3]);
    };
    if (policy == CorruptPolicy::kStrict) {
      try {
        Analyzer(opts).run(dir.path);
        FAIL() << "expected std::runtime_error";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find(name_of(files[3])),
                  std::string::npos)
            << e.what();
      }
      continue;
    }
    const AnalysisResult r = Analyzer(opts).run(dir.path);
    EXPECT_EQ(r.files_read, 4u);
    EXPECT_EQ(r.files_skipped, 1u);
    ASSERT_EQ(r.skipped.size(), 1u);
    EXPECT_NE(r.skipped[0].find(name_of(files[3])),
              std::string::npos);
    EXPECT_NE(r.skipped[0].find("vanished after listing"), std::string::npos)
        << r.skipped[0];
    EXPECT_EQ(r.files_quarantined, 0u);
    EXPECT_EQ(serialized(r.merged), expected);
  }
}

// A shard re-published by atomic rename after listing is folded as it
// stands when its worker reads it, whether the new bytes are longer
// (several pages) or shorter than the old: nothing is skipped or
// retried, and the aggregate equals reduce() over the files as they
// are afterwards.
TEST(Pipeline, ShardReplacedAfterListingIsFoldedAsReplaced) {
  for (const bool larger : {true, false}) {
    SCOPED_TRACE(larger ? "larger replacement" : "smaller replacement");
    TempDir dir;
    write_synthetic_dir(dir.path, 5);
    const auto files = core::list_profile_files(dir.path);
    ASSERT_EQ(files.size(), 5u);
    // A re-recording of file 3's thread with more or fewer samples.
    ThreadProfile next = make_profile(3);
    if (larger) {
      Cct& heap = next.cct(StorageClass::kHeap);
      for (std::uint64_t v = 0; v < 400; ++v) {
        heap.add_metrics(heap.child(Cct::kRootId, NodeKind::kLeafInstr,
                                    0x7000 + v),
                         metrics(v + 1, v % 3, 4 * v));
      }
    } else {
      next = ThreadProfile{};
      next.rank = make_profile(3).rank;
      next.tid = make_profile(3).tid;
      Cct& unknown = next.cct(StorageClass::kUnknown);
      unknown.add_metrics(
          unknown.child(Cct::kRootId, NodeKind::kLeafInstr, 0x900),
          metrics(1));
    }
    const std::string replacement = serialized(next);
    const std::uint64_t before = fs::file_size(files[3]);
    if (larger) {
      EXPECT_GT(replacement.size(), 4 * before);
    } else {
      EXPECT_LT(replacement.size(), before);
    }

    Analyzer::Options opts;
    opts.workers = 1;
    // After the first file folds, a re-recording replaces file 3.
    opts.progress = [&](std::size_t done, std::size_t) {
      if (done == 1) core::write_file_atomic(files[3], replacement);
    };
    const AnalysisResult r = Analyzer(opts).run(dir.path);
    EXPECT_EQ(fs::file_size(files[3]), replacement.size());
    EXPECT_EQ(r.files_read, 5u);
    EXPECT_EQ(r.files_skipped, 0u);
    EXPECT_EQ(r.transient_retries, 0u);
    EXPECT_EQ(serialized(r.merged),
              serialized(reduce(read_all_profiles(dir.path))));
  }
}

// A poisoned shard — framing and CRC intact, structure truncated — is
// only detected part-way through merging it into a worker's partial.
// The worker must rebuild its partial without it, leaving the aggregate
// and every count, list and progress call exactly as if the shard had
// failed a validating pre-scan. Shard 1 is plainly corrupt (framing) and
// shard 3 poisoned; both are merges into a non-empty partial with 1 and
// with 3 workers, so each run re-folds.
TEST(Pipeline, PoisonedShardIsRefoldedAroundUnderEveryPolicy) {
  constexpr std::size_t kFiles = 8;
  constexpr std::size_t kTorn = 1;
  constexpr std::size_t kPoison = 3;
  const auto make_dir = [](const TempDir& dir, bool torn) {
    write_synthetic_dir(dir.path, kFiles);
    const auto files = core::list_profile_files(dir.path);
    if (torn) truncate_file(files[kTorn]);
    core::write_file_atomic(
        files[kPoison],
        test::poisoned_shard(read_profile_bytes(files[kPoison])));
    return files;
  };

  for (const int workers : {1, 3}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    // Skip and quarantine fold exactly the intact shards.
    for (const CorruptPolicy policy :
         {CorruptPolicy::kSkip, CorruptPolicy::kQuarantine}) {
      TempDir dir;
      const auto files = make_dir(dir, true);
      std::vector<ThreadProfile> intact;
      std::uint64_t intact_bytes = 0;
      for (std::size_t i = 0; i < kFiles; ++i) {
        if (i == kTorn || i == kPoison) continue;
        intact.push_back(core::read_profile_file(files[i]));
        intact_bytes += fs::file_size(files[i]);
      }
      std::mutex mu;
      std::vector<std::size_t> calls;
      Analyzer::Options opts;
      opts.workers = workers;
      opts.corrupt_policy = policy;
      opts.views = kViewThreads;
      opts.progress = [&](std::size_t done, std::size_t total) {
        std::lock_guard lock(mu);
        EXPECT_EQ(total, kFiles);
        calls.push_back(done);
      };
      const AnalysisResult r = Analyzer(opts).run(dir.path);
      EXPECT_EQ(serialized(r.merged), serialized(reduce(std::move(intact))));
      EXPECT_EQ(r.files_read, kFiles - 2);
      EXPECT_EQ(r.files_skipped, 2u);
      ASSERT_EQ(r.skipped.size(), 2u);
      EXPECT_NE(r.skipped[0].find(name_of(files[kTorn])),
                std::string::npos);
      EXPECT_NE(r.skipped[1].find(name_of(files[kPoison])),
                std::string::npos);
      EXPECT_EQ(r.threads.size(), kFiles - 2);
      EXPECT_EQ(r.transient_retries, 0u);
      EXPECT_EQ(r.bytes_streamed,
                intact_bytes + fs::file_size(dir.path / "structure.dcst"));
      std::sort(calls.begin(), calls.end());
      std::vector<std::size_t> once(kFiles);
      for (std::size_t i = 0; i < kFiles; ++i) once[i] = i + 1;
      EXPECT_EQ(calls, once);
      EXPECT_LE(r.peak_resident_profiles,
                static_cast<std::size_t>(workers) + 1);
      if (policy == CorruptPolicy::kQuarantine) {
        ASSERT_EQ(r.quarantined.size(), 2u);
        const fs::path qdir = dir.path / core::kQuarantineDirName;
        std::size_t moved = 0;
        for (const auto& e : fs::directory_iterator(qdir)) {
          (void)e;
          ++moved;
        }
        EXPECT_EQ(moved, 2u);  // each moved exactly once
        EXPECT_TRUE(fs::exists(qdir / fs::path(files[kPoison]).filename()));
        EXPECT_FALSE(fs::exists(files[kPoison]));
      } else {
        EXPECT_TRUE(r.quarantined.empty());
        EXPECT_TRUE(fs::exists(files[kPoison]));
      }
    }

    // Salvage folds each corrupt shard's valid prefix in its place,
    // exactly as read_salvage keeps it.
    {
      TempDir dir;
      const auto files = make_dir(dir, true);
      std::optional<ThreadProfile> expected;
      std::size_t kept = 0;
      std::size_t dropped = 0;
      for (std::size_t i = 0; i < kFiles; ++i) {
        ThreadProfile p;
        if (i == kTorn || i == kPoison) {
          core::SalvageResult sr;
          p = ThreadProfile::read_salvage(core::read_file(files[i]), sr);
          ASSERT_GT(sr.records_kept, 0u);
          kept += sr.records_kept;
          dropped += sr.records_dropped;
        } else {
          p = core::read_profile_file(files[i]);
        }
        if (!expected) {
          expected = std::move(p);
        } else {
          merge_into(*expected, p);
        }
      }
      Analyzer::Options opts;
      opts.workers = workers;
      opts.salvage = true;
      const AnalysisResult r = Analyzer(opts).run(dir.path);
      EXPECT_EQ(serialized(r.merged), serialized(*expected));
      EXPECT_EQ(r.files_read, kFiles - 2);
      EXPECT_EQ(r.files_salvaged, 2u);
      EXPECT_EQ(r.records_salvaged, kept);
      EXPECT_EQ(r.records_dropped, dropped);
      EXPECT_EQ(r.salvaged.size(), 2u);
    }

    // Strict names the poisoned shard.
    {
      TempDir dir;
      const auto files = make_dir(dir, false);
      Analyzer::Options opts;
      opts.workers = workers;
      opts.corrupt_policy = CorruptPolicy::kStrict;
      try {
        Analyzer(opts).run(dir.path);
        FAIL() << "expected std::runtime_error";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(
            std::string(e.what()).find(name_of(files[kPoison])),
            std::string::npos)
            << e.what();
      }
    }
  }
}

/// Flips one payload byte, so the CRC32C check fails.
void flip_bit(const fs::path& path) {
  std::string bytes = read_profile_bytes(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A 12-shard directory with a truncated shard (2), a bit-flipped one (5)
/// and a poisoned one (8), every kind of bad shard after a good one.
std::vector<std::string> make_bad_dir(const fs::path& dir) {
  write_synthetic_dir(dir, 12);
  const auto files = core::list_profile_files(dir);
  truncate_file(files[2]);
  flip_bit(files[5]);
  core::write_file_atomic(files[8],
                          test::poisoned_shard(read_profile_bytes(files[8])));
  return files;
}

/// Everything a run reports that must not depend on its worker count.
std::string run_digest(const AnalysisResult& r) {
  std::ostringstream out;
  out << serialized(r.merged) << '\n' << r.files_read << ' '
      << r.files_skipped << ' ' << r.files_salvaged << ' '
      << r.records_salvaged << ' ' << r.records_dropped << ' '
      << r.bytes_streamed << '\n';
  for (const auto& list : {r.skipped, r.quarantined, r.salvaged}) {
    for (const auto& line : list) out << line << '\n';
    out << "--\n";
  }
  for (const auto& t : r.threads) {
    out << t.rank << '/' << t.tid << '=' << t.metrics[Metric::kLatency]
        << '\n';
  }
  for (const auto& v : r.variables) {
    out << v.name << ' ' << v.metrics[Metric::kLatency] << '\n';
  }
  for (const auto& f : r.functions) {
    out << f.func << ' ' << f.metrics[Metric::kLatency] << '\n';
  }
  out << r.summary.grand[Metric::kLatency] << '\n';
  return std::move(out).str();
}

// The read-ahead changes who reads, never what folds: at every worker
// count the aggregate, the views, the thread rows and every skip,
// quarantine and salvage list equal the serial fold's, under each
// policy, for truncated, bit-flipped and poisoned shards. Quarantine
// moves files, so each run gets a fresh directory.
TEST(Pipeline, ReadAheadMatchesTheSerialFoldAtEveryWorkerCount) {
  struct Mode {
    const char* name;
    CorruptPolicy policy;
    bool salvage;
  };
  for (const Mode mode : {Mode{"skip", CorruptPolicy::kSkip, false},
                          Mode{"quarantine", CorruptPolicy::kQuarantine,
                               false},
                          Mode{"salvage", CorruptPolicy::kSkip, true}}) {
    SCOPED_TRACE(mode.name);
    std::string serial;
    for (const int workers : {1, 2, 3, 8}) {
      SCOPED_TRACE(std::to_string(workers) + " workers");
      TempDir dir;
      make_bad_dir(dir.path);
      Analyzer::Options opts;
      opts.workers = workers;
      opts.corrupt_policy = mode.policy;
      opts.salvage = mode.salvage;
      opts.views = kViewAll & ~kViewOverhead;
      opts.top_n = 0;
      std::vector<std::size_t> calls;
      opts.progress = [&](std::size_t done, std::size_t) {
        calls.push_back(done);
      };
      const AnalysisResult r = Analyzer(opts).run(dir.path);
      EXPECT_EQ(r.workers_used, workers);
      EXPECT_EQ(r.peak_resident_profiles, 1u);
      EXPECT_LE(r.peak_resident_images,
                std::max<std::size_t>((workers - 1) * kImagesPerReader, 1));
      EXPECT_EQ(r.files_skipped, 3u);
      EXPECT_EQ(r.files_quarantined,
                mode.policy == CorruptPolicy::kQuarantine ? 3u : 0u);
      std::size_t read = 0;
      for (const ReaderStat& s : r.readers) read += s.files;
      EXPECT_EQ(read, 12u);
      EXPECT_EQ(r.readers.size(), static_cast<std::size_t>(
                                      std::max(workers - 1, 1)));
      std::vector<std::size_t> once(12);
      for (std::size_t i = 0; i < once.size(); ++i) once[i] = i + 1;
      EXPECT_EQ(calls, once);  // on the caller, strictly increasing
      // Skip lines name files by path, and each run has its own
      // directory: compare with the directory's path cut out.
      std::string digest = run_digest(r);
      const std::string path = dir.path.string();
      for (std::size_t at; (at = digest.find(path)) != std::string::npos;) {
        digest.erase(at, path.size());
      }
      if (workers == 1) {
        serial = digest;
      } else {
        EXPECT_EQ(digest, serial);
      }
    }
  }
}

// kStrict stops at the first bad shard with readers still ahead of it,
// and the throw leaves none of them running.
TEST(Pipeline, StrictThrowLeavesNoReaderRunning) {
  TempDir dir;
  const auto files = make_bad_dir(dir.path);
  const std::size_t baseline = test::thread_baseline();
  for (const int workers : {2, 8}) {
    Analyzer::Options opts;
    opts.workers = workers;
    opts.corrupt_policy = CorruptPolicy::kStrict;
    try {
      Analyzer(opts).run(dir.path);
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name_of(files[2])),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(test::threads_settle_to(baseline)) << workers << " workers";
  }
}

// The read-ahead alone, its window wrapping round (4 slots under 2
// workers, 8 under 3) or not (28 under 8): the images come out in
// listing order, each equal to a serial read_shard of its file — a
// listed file deleted before the read included — though each slot
// reuses one buffer, and folding them gives the serial fold's aggregate
// and outcomes.
TEST(ReadAhead, ImagesComeInListingOrderAcrossWindowWraps) {
  TempDir dir;
  std::vector<std::string> files = make_bad_dir(dir.path);
  // Listed, then gone before any reader gets to it.
  files.insert(files.begin() + 4, (dir.path / "profile-0-99.dcpf").string());
  std::vector<ShardImage> serial(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    read_shard(files[i], serial[i]);
  }
  ASSERT_TRUE(serial[4].vanished);
  const auto fold_all = [&](ReadAhead& reads, std::string* outcomes) {
    std::optional<ThreadProfile> agg;
    for (const auto& f : files) {
      const ShardFold r =
          fold_shard(dir.path, f, reads.next(), agg, CorruptPolicy::kSkip,
                     /*salvage=*/true);
      *outcomes += std::to_string(static_cast<int>(r.outcome)) + r.error +
                   std::to_string(r.bytes) + ';';
    }
    return serialized(*agg);
  };
  std::string serial_outcomes;
  ReadAhead one(files, 1);
  EXPECT_EQ(one.window(), 1u);
  const std::string expected = fold_all(one, &serial_outcomes);
  EXPECT_EQ(one.finish().size(), 1u);
  EXPECT_EQ(one.peak_images(), 1u);
  for (const int workers : {2, 3, 8}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    {
      ReadAhead reads(files, workers);
      EXPECT_EQ(reads.workers(), workers);
      EXPECT_EQ(reads.window(), (workers - 1) * kImagesPerReader);
      for (std::size_t i = 0; i < files.size(); ++i) {
        const ShardImage& image = reads.next();
        EXPECT_EQ(image.read, serial[i].read) << i;
        if (image.read) {
          EXPECT_EQ(image.bytes, serial[i].bytes) << i;
        }
        EXPECT_EQ(image.error, serial[i].error) << i;
        EXPECT_EQ(image.vanished, serial[i].vanished) << i;
      }
      std::size_t read = 0;
      for (const ReaderStat& s : reads.finish()) read += s.files;
      EXPECT_EQ(read, files.size());  // nothing read twice or past the end
      EXPECT_GE(reads.peak_images(), 1u);
      EXPECT_LE(reads.peak_images(), reads.window());
    }
    ReadAhead reads(files, workers);
    std::string outcomes;
    EXPECT_EQ(fold_all(reads, &outcomes), expected);
    EXPECT_EQ(outcomes, serial_outcomes);
  }
}

// The window is kImagesPerReader slots per reader, and readers stop at
// kMaxReaders whatever the worker count asks, so no reader can find the
// window too small to hold its image, and the images stay bounded.
TEST(ReadAhead, ReadersAreCappedAndTheWindowGrowsWithThem) {
  TempDir dir;
  write_synthetic_dir(dir.path, 40);
  const auto files = core::list_profile_files(dir.path);
  std::uintmax_t largest = 0;
  for (const auto& f : files) largest = std::max(largest, fs::file_size(f));
  for (const int workers : {1, 2, 5, 17, 40}) {
    SCOPED_TRACE(std::to_string(workers) + " workers");
    ReadAhead reads(files, workers);
    const std::size_t readers =
        std::min<std::size_t>(workers - 1, kMaxReaders);
    EXPECT_EQ(reads.workers(), static_cast<int>(readers) + 1);
    EXPECT_EQ(reads.window(), std::max<std::size_t>(
                                  readers * kImagesPerReader, 1));
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_TRUE(reads.next().error.empty()) << i;
    }
    EXPECT_EQ(reads.finish().size(), std::max<std::size_t>(readers, 1));
    EXPECT_LE(reads.peak_images(), reads.window());
    EXPECT_GE(reads.image_bytes(), largest);
    EXPECT_LE(reads.image_bytes(), reads.window() * 2 * largest);
  }
}

// A caller that leaves early (a throw, a poison rollback, a bounded
// poll) destroys its ReadAhead with readers blocked on a full window and
// others mid-claim: the destructor must stop and join them all.
TEST(ReadAhead, DestructionStopsReadersWaitingOnAFullWindow) {
  TempDir dir;
  write_synthetic_dir(dir.path, 40);
  const auto files = core::list_profile_files(dir.path);
  const std::size_t baseline = test::thread_baseline();
  for (const std::size_t taken : {0u, 1u, 7u}) {
    ReadAhead reads(files, 3);
    ASSERT_LT(reads.window(), files.size());
    for (std::size_t i = 0; i < taken; ++i) {
      EXPECT_TRUE(reads.next().error.empty());
    }
  }
  EXPECT_TRUE(test::threads_settle_to(baseline));
}

// --- measurement.h streaming primitives -------------------------------

TEST(MeasurementStreaming, ListProfileFilesIsSortedAndFiltered) {
  TempDir dir;
  write_synthetic_dir(dir.path, 5);
  std::ofstream(dir.path / "notes.txt") << "not a profile";
  // Strays a measurement directory accumulates in practice: interrupted
  // atomic-writer temporaries, editor backups, and emacs lock files
  // (whose *extension* is still ".dcpf"), plus the quarantine subdir.
  std::ofstream(dir.path / "profile-9-9.dcpf.tmp") << "partial write";
  std::ofstream(dir.path / "profile-0-0.dcpf~") << "backup";
  std::ofstream(dir.path / ".#profile-0-0.dcpf") << "lock";
  fs::create_directories(dir.path / core::kQuarantineDirName);
  std::ofstream(dir.path / core::kQuarantineDirName / "profile-8-8.dcpf")
      << "quarantined";
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 5u);
  for (std::size_t i = 1; i < files.size(); ++i) {
    EXPECT_LT(files[i - 1], files[i]);
  }
  for (const auto& f : files) {
    EXPECT_EQ(fs::path(f).extension(), ".dcpf");
    EXPECT_NE(fs::path(f).filename().string().front(), '.');
  }
  EXPECT_THROW(core::list_profile_files("/nonexistent/dcprof-dir"),
               std::runtime_error);
}

TEST(MeasurementStreaming, ReadProfileFileErrorsNameTheFile) {
  TempDir dir;
  write_synthetic_dir(dir.path, 2);
  const auto files = core::list_profile_files(dir.path);

  // Valid file round-trips.
  const ThreadProfile p = core::read_profile_file(files[0]);
  EXPECT_GT(p.total_samples(), 0u);

  // Truncated file: error names the file.
  truncate_file(files[0]);
  try {
    core::read_profile_file(files[0]);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(name_of(files[0])),
              std::string::npos)
        << e.what();
  }

  // Missing file: error names it.
  const fs::path missing = dir.path / "profile-9-9.dcpf";
  try {
    core::read_profile_file(missing);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing.string()),
              std::string::npos)
        << e.what();
  }

  // Trailing garbage after a valid profile is rejected: the framing
  // check finds no footer at the end of the file.
  {
    std::ofstream out(files[1], std::ios::binary | std::ios::app);
    out << "garbage";
  }
  try {
    core::read_profile_file(files[1]);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad footer magic"),
              std::string::npos)
        << e.what();
  }
}

// read_file returns every byte of a file of any size: empty, one byte,
// and many pages with a ragged tail.
TEST(MeasurementStreaming, ReadFileReturnsEveryByte) {
  TempDir dir;
  fs::create_directories(dir.path);
  for (const std::size_t size : {0ul, 1ul, 3 * 65536ul + 123}) {
    std::string bytes(size, '\0');
    for (std::size_t i = 0; i < size; ++i) {
      bytes[i] = static_cast<char>((i * 131 + 7) & 0xff);
    }
    const fs::path path = dir.path / ("f" + std::to_string(size));
    core::write_file_atomic(path, bytes);
    EXPECT_EQ(core::read_file(path), bytes) << size << " bytes";
  }
}

TEST(MeasurementStreaming, ListOrderIsDeterministicAcrossReads) {
  TempDir dir;
  write_synthetic_dir(dir.path, 7);
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 7u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
  // Re-listing yields the same order, so every consumer folds the same
  // sequence — the determinism the streaming merge relies on.
  EXPECT_EQ(core::list_profile_files(dir.path), files);
}

// --- profiler attach hooks --------------------------------------------

sim::MachineConfig tiny() {
  sim::MachineConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 1;
  cfg.l1 = sim::CacheConfig{1024, 2, 64};
  cfg.l2 = sim::CacheConfig{4096, 4, 64};
  cfg.l3 = sim::CacheConfig{16384, 8, 64};
  return cfg;
}

std::uint64_t run_attached_kernel() {
  sim::Machine machine(tiny());
  rt::Team team(machine, 1);
  rt::Allocator alloc(machine);
  pmu::PmuSet pmu(machine.config(),
                  {pmu::PmuConfig{pmu::EventKind::kIbsOp, 8, 0, 0}});
  binfmt::ModuleRegistry modules;
  binfmt::LoadModule exe("exe", machine.aspace());
  modules.load(&exe);
  core::Profiler profiler(modules);
  profiler.attach_pmu(pmu);
  profiler.attach_allocator(alloc);
  profiler.register_team(team);
  machine.set_observer(&pmu);
  rt::ThreadCtx& t = team.master();
  t.push_frame(0x10);
  const sim::Addr block = alloc.malloc(t, 8192, 0x99);
  for (int i = 0; i < 64; ++i) {
    t.load(block + static_cast<sim::Addr>(i) * 8, 8, 0x400000);
  }
  machine.set_observer(nullptr);
  return profiler.stats().samples_handled;
}

TEST(ProfilerAttach, PmuAndAllocatorHooksDeliverSamples) {
  EXPECT_GT(run_attached_kernel(), 0u);
}

}  // namespace
}  // namespace dcprof::analysis
