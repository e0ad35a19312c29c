#include "core/measurement.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "analysis/merge.h"
#include "analysis/views.h"
#include "rt/sim_array.h"
#include "workloads/harness.h"

namespace dcprof::core {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  TempDir() {
    path = fs::temp_directory_path() /
           ("dcprof-test-" + std::to_string(::getpid()) + "-" +
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

/// Reads every profile in `dir` through the streaming surface, in the
/// deterministic `list_profile_files` order.
std::vector<ThreadProfile> read_all_profiles(const fs::path& dir) {
  std::vector<ThreadProfile> out;
  for (const auto& path : list_profile_files(dir)) {
    out.push_back(read_profile_file(path));
  }
  return out;
}

/// Total on-disk bytes of the structure file plus every profile file.
std::uint64_t measurement_bytes(const fs::path& dir) {
  std::uint64_t total = fs::file_size(dir / "structure.dcst");
  for (const auto& path : list_profile_files(dir)) {
    total += fs::file_size(path);
  }
  return total;
}

/// Runs a tiny profiled kernel and writes its measurement directory.
std::uint64_t produce_measurements(const fs::path& dir) {
  wl::ProcessCtx proc(wl::node_config(), 4, "app");
  binfmt::LoadModule& exe = proc.exe();
  const auto f = exe.add_function("main", "app.c");
  const sim::Addr ip_alloc = exe.add_instr(f, 1);
  const sim::Addr ip_load = exe.add_instr(f, 2);
  proc.annotate(ip_alloc, "data");
  proc.enable_profiling(wl::ibs_config(64));
  rt::SimArray<double> a;
  proc.team().single([&](rt::ThreadCtx& t) {
    rt::Scope s(t, ip_alloc);
    a = rt::SimArray<double>::calloc_in(proc.alloc(), t, 50'000, ip_alloc);
  });
  proc.team().parallel_for(0, 50'000, [&](rt::ThreadCtx& t, std::int64_t i) {
    a.get(t, static_cast<std::uint64_t>((i * 131) % 50'000), ip_load);
  });
  return proc.write_measurements(dir.string());
}

TEST(Measurement, WriteCreatesExpectedFiles) {
  TempDir dir;
  const std::uint64_t bytes = produce_measurements(dir.path);
  EXPECT_GT(bytes, 0u);
  EXPECT_TRUE(fs::exists(dir.path / "structure.dcst"));
  std::size_t profile_files = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".dcpf") ++profile_files;
  }
  EXPECT_EQ(profile_files, 4u);  // one per thread
}

TEST(Measurement, RoundTripPreservesSamplesAndSymbols) {
  TempDir dir;
  produce_measurements(dir.path);
  std::vector<ThreadProfile> profiles = read_all_profiles(dir.path);
  const binfmt::StructureData structure = read_structure_file(dir.path);
  EXPECT_EQ(profiles.size(), 4u);
  EXPECT_GT(measurement_bytes(dir.path), 0u);

  std::uint64_t samples = 0;
  for (const auto& p : profiles) samples += p.total_samples();
  EXPECT_GT(samples, 50u);

  // The structure file resolves the IPs the profiles reference.
  ThreadProfile merged = analysis::reduce(std::move(profiles));
  analysis::AnalysisContext ctx;
  ctx.modules = &structure;
  ctx.alloc_names = &structure.alloc_names();
  const auto vars =
      analysis::variable_table(merged, ctx, Metric::kSamples);
  ASSERT_FALSE(vars.empty());
  EXPECT_EQ(vars[0].name, "data");  // annotation survived the round trip
}

TEST(Measurement, MissingDirectoryThrows) {
  EXPECT_THROW(list_profile_files("/nonexistent/dcprof-dir"),
               std::exception);
  EXPECT_THROW(read_structure_file("/nonexistent/dcprof-dir"),
               std::exception);
}

TEST(Measurement, DirectoryWithoutProfilesListsEmpty) {
  TempDir dir;
  fs::create_directories(dir.path);
  {
    binfmt::ModuleRegistry empty;
    const auto structure = binfmt::StructureData::capture(empty);
    std::uint64_t bytes = write_measurement_dir(dir.path, {}, structure);
    EXPECT_GT(bytes, 0u);  // structure only
  }
  EXPECT_TRUE(list_profile_files(dir.path).empty());
  EXPECT_NO_THROW(read_structure_file(dir.path));
}

TEST(Measurement, WriteIsIdempotentPerDirectory) {
  TempDir dir;
  produce_measurements(dir.path);
  const std::vector<ThreadProfile> first = read_all_profiles(dir.path);
  const std::uint64_t first_bytes = measurement_bytes(dir.path);
  produce_measurements(dir.path);  // overwrite with a fresh identical run
  const std::vector<ThreadProfile> second = read_all_profiles(dir.path);
  EXPECT_EQ(first.size(), second.size());
  EXPECT_EQ(first_bytes, measurement_bytes(dir.path));
}

// --- Concurrency regressions in the profile I/O path ------------------

// Two threads hammering write_file_atomic on the SAME target used to
// share one `<path>.tmp` file: interleaved write/fsync/rename could
// publish torn bytes under the final name. With per-writer unique temp
// names, every published version is one writer's complete payload.
TEST(Measurement, ConcurrentAtomicWritesToSameTargetNeverTear) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path target = dir.path / "contended.dcpf";
  const std::string payload_a(8192, 'A');
  const std::string payload_b(8192, 'B');
  constexpr int kRounds = 200;

  auto hammer = [&](const std::string& payload) {
    for (int i = 0; i < kRounds; ++i) write_file_atomic(target, payload);
  };
  std::thread ta(hammer, std::cref(payload_a));
  std::thread tb(hammer, std::cref(payload_b));
  // Read concurrently with the writers: every observed version must be
  // exactly one writer's bytes, never a mix or a truncation.
  for (int i = 0; i < kRounds; ++i) {
    std::ifstream in(target, std::ios::binary);
    if (!in) continue;  // not yet published
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string got = std::move(buf).str();
    ASSERT_TRUE(got == payload_a || got == payload_b)
        << "torn read of " << got.size() << " bytes on round " << i;
  }
  ta.join();
  tb.join();
  std::ifstream in(target, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string last = std::move(buf).str();
  EXPECT_TRUE(last == payload_a || last == payload_b);
  // No temp-file litter: both writers renamed or unlinked all of them.
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(entry.path().extension(), ".dcpf")
        << "leftover temp file " << entry.path();
  }
}

// list_profile_files races deleters (a concurrent analyzer quarantining,
// the ingestion daemon claiming): entries vanishing mid-listing must be
// skipped, not thrown out of the iteration.
TEST(Measurement, ListSurvivesRacingDeletes) {
  TempDir dir;
  fs::create_directories(dir.path);
  constexpr int kFiles = 120;
  for (int i = 0; i < kFiles; ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "profile-%03d-0.dcpf", i);
    write_file_atomic(dir.path / name, "x");
  }
  std::atomic<bool> stop{false};
  std::thread deleter([&] {
    // Delete every other file, slowly, while listings run.
    for (int i = 0; i < kFiles && !stop.load(); i += 2) {
      char name[32];
      std::snprintf(name, sizeof(name), "profile-%03d-0.dcpf", i);
      std::error_code ec;
      fs::remove(dir.path / name, ec);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> files;
    ASSERT_NO_THROW(files = list_profile_files(dir.path));
    // Never fewer than the survivors, never more than the start set.
    EXPECT_GE(files.size(), static_cast<std::size_t>(kFiles / 2));
    EXPECT_LE(files.size(), static_cast<std::size_t>(kFiles));
  }
  stop.store(true);
  deleter.join();
}

// Quarantining a rewritten shard under a name that is already in
// quarantine/ must keep BOTH copies: the first quarantined file is
// forensic evidence, not scratch space.
TEST(Measurement, QuarantineTwiceKeepsBothCopies) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path shard = dir.path / "profile-0-0.dcpf";

  write_file_atomic(shard, "first corrupt version");
  const fs::path dest1 = quarantine_profile_file(dir.path, shard);
  EXPECT_EQ(dest1, dir.path / kQuarantineDirName / "profile-0-0.dcpf");

  write_file_atomic(shard, "second corrupt version");
  const fs::path dest2 = quarantine_profile_file(dir.path, shard);
  EXPECT_NE(dest2, dest1);
  EXPECT_EQ(dest2, dir.path / kQuarantineDirName / "profile-0-0.dcpf.1");

  write_file_atomic(shard, "third corrupt version");
  const fs::path dest3 = quarantine_profile_file(dir.path, shard);
  EXPECT_EQ(dest3, dir.path / kQuarantineDirName / "profile-0-0.dcpf.2");

  auto slurp = [](const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return std::move(buf).str();
  };
  EXPECT_EQ(slurp(dest1), "first corrupt version");
  EXPECT_EQ(slurp(dest2), "second corrupt version");
  EXPECT_EQ(slurp(dest3), "third corrupt version");
}

// claim_profile_file: the winner gets the new path, the loser of the
// race gets nullopt (never an exception), and exactly one copy exists
// afterwards.
TEST(Measurement, ClaimRaceHasOneWinnerAndNoError) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path shard = dir.path / "profile-0-0.dcpf";
  write_file_atomic(shard, "shard bytes");

  const auto first = claim_profile_file(dir.path, shard);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, dir.path / kIngestedDirName / "profile-0-0.dcpf");
  EXPECT_TRUE(fs::exists(*first));
  EXPECT_FALSE(fs::exists(shard));

  // Second claim of the now-vanished file: lost race, not an error.
  const auto second = claim_profile_file(dir.path, shard);
  EXPECT_FALSE(second.has_value());
}

// A claim renames first and creates ingested/ only when the rename
// fails for want of it: a claim made after ingested/ was removed
// recreates it, and the lost-race rule still holds.
TEST(Measurement, ClaimAfterIngestedDirRemovedRecreatesIt) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path a = dir.path / "profile-0-0.dcpf";
  const fs::path b = dir.path / "profile-0-1.dcpf";
  write_file_atomic(a, "shard a");
  write_file_atomic(b, "shard b");
  ASSERT_TRUE(claim_profile_file(dir.path, a).has_value());
  fs::remove_all(dir.path / kIngestedDirName);

  const auto claimed = claim_profile_file(dir.path, b);
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(*claimed, dir.path / kIngestedDirName / "profile-0-1.dcpf");
  EXPECT_EQ(read_file(*claimed), "shard b");
  EXPECT_FALSE(fs::exists(b));
  fs::remove_all(dir.path / kIngestedDirName);
  EXPECT_FALSE(claim_profile_file(dir.path, b).has_value());
}

}  // namespace
}  // namespace dcprof::core
