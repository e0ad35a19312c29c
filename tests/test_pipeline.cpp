// Streaming analysis pipeline: Analyzer::run must produce a merged
// profile byte-identical to the load-all reduce() path while holding at
// most workers+1 profiles resident, skip-and-count corrupt, poisoned and
// vanished files, and keep the deprecated free-function/overload entry
// points equivalent.
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

namespace dcprof::analysis {
namespace {

namespace fs = std::filesystem;

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

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
    EXPECT_EQ(r.files_discovered, 8u);
    EXPECT_EQ(r.files_read, 6u);
    EXPECT_EQ(r.files_skipped, 2u);
    ASSERT_EQ(r.skipped.size(), 2u);
    EXPECT_NE(r.skipped[0].find(files[2].filename().string()),
              std::string::npos);
    EXPECT_NE(r.skipped[1].find(files[5].filename().string()),
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
    EXPECT_NE(std::string(e.what()).find(files[1].filename().string()),
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
  EXPECT_LE(r.alloc_sites.size(), 2u);
  EXPECT_EQ(r.threads.size(), 12u);
  EXPECT_GT(r.summary.grand[Metric::kSamples], 0u);
}

TEST(Pipeline, OptionsBuilderChainsAndAggregateInitStillWorks) {
  // The fluent setters configure the same fields as direct assignment.
  const Analyzer::Options built = Analyzer::Options{}
                                      .with_workers(3)
                                      .with_top_n(7)
                                      .with_sort_metric(Metric::kSamples)
                                      .with_views(kViewSummary)
                                      .add_views(kViewAdvice)
                                      .with_policy(CorruptPolicy::kStrict)
                                      .with_salvage();
  EXPECT_EQ(built.workers, 3);
  EXPECT_EQ(built.top_n, 7u);
  EXPECT_EQ(built.sort_metric, Metric::kSamples);
  EXPECT_EQ(built.views, kViewSummary | kViewAdvice);
  EXPECT_EQ(built.corrupt_policy, CorruptPolicy::kStrict);
  EXPECT_TRUE(built.salvage);

  // Options must remain an aggregate: designated initialization of a
  // subset of fields (as existing call sites do) still compiles.
  const Analyzer::Options aggregate{.workers = 2, .top_n = 5};
  EXPECT_EQ(aggregate.workers, 2);
  EXPECT_EQ(aggregate.top_n, 5u);
  EXPECT_EQ(aggregate.sort_metric, Metric::kLatency);  // default survives

  // A builder-configured Analyzer produces the same result as one
  // configured by direct field assignment.
  TempDir dir;
  write_synthetic_dir(dir.path, 4);
  Analyzer::Options direct;
  direct.workers = 2;
  direct.top_n = 3;
  const AnalysisResult a = Analyzer(direct).run(dir.path);
  const AnalysisResult b =
      Analyzer(Analyzer::Options{}.with_workers(2).with_top_n(3))
          .run(dir.path);
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
        EXPECT_NE(std::string(e.what()).find(files[3].filename().string()),
                  std::string::npos)
            << e.what();
      }
      continue;
    }
    const AnalysisResult r = Analyzer(opts).run(dir.path);
    EXPECT_EQ(r.files_read, 4u);
    EXPECT_EQ(r.files_skipped, 1u);
    ASSERT_EQ(r.skipped.size(), 1u);
    EXPECT_NE(r.skipped[0].find(files[3].filename().string()),
              std::string::npos);
    EXPECT_NE(r.skipped[0].find("vanished after listing"), std::string::npos)
        << r.skipped[0];
    EXPECT_EQ(r.files_quarantined, 0u);
    EXPECT_EQ(serialized(r.merged), expected);
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
      EXPECT_NE(r.skipped[0].find(files[kTorn].filename().string()),
                std::string::npos);
      EXPECT_NE(r.skipped[1].find(files[kPoison].filename().string()),
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
        EXPECT_TRUE(fs::exists(qdir / files[kPoison].filename()));
        EXPECT_FALSE(fs::exists(files[kPoison]));
      } else {
        EXPECT_TRUE(r.quarantined.empty());
        EXPECT_TRUE(fs::exists(files[kPoison]));
      }
    }

    // Salvage folds each corrupt shard's valid prefix in its place,
    // exactly as read_profile_file_salvage keeps it.
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
          p = core::read_profile_file_salvage(files[i], sr);
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
            std::string(e.what()).find(files[kPoison].filename().string()),
            std::string::npos)
            << e.what();
      }
    }
  }
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
    EXPECT_EQ(f.extension(), ".dcpf");
    EXPECT_NE(f.filename().string().front(), '.');
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
    EXPECT_NE(std::string(e.what()).find(files[0].filename().string()),
              std::string::npos)
        << e.what();
  }

  // Trailing garbage after a valid profile is rejected.
  {
    std::ofstream out(files[1], std::ios::binary | std::ios::app);
    out << "garbage";
  }
  try {
    core::read_profile_file(files[1]);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos)
        << e.what();
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

// --- deprecated-wrapper equivalence -----------------------------------

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
