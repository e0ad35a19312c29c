// Crash-safety of the measurement->analysis boundary: the v4 `.dcpf`
// framing (header + CRC32C footer), atomic write-out, recovery-mode
// salvage reads, the analyzer's corrupt-shard policies, rejection of the
// removed v2 and v3 formats and of raised-period headers, and the one
// sampling period each header records.
//
// The centerpiece is a truncation sweep: a serialized profile is cut at
// *every* byte offset (which covers every record boundary and every
// mid-record position). The strict reader must reject each prefix, and
// the salvaging reader must keep exactly the records whose bytes fully
// arrived — no more, no less.
#include <sys/stat.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/ingest.h"
#include "analysis/merge.h"
#include "analysis/pipeline.h"
#include "core/checksum.h"
#include "core/measurement.h"
#include "core/profile.h"
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
using core::SalvageResult;
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
           ("dcprof-crash-" + std::to_string(::getpid()) + "-" +
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
  stat.add_metrics(stat.child(d, NodeKind::kLeafInstr, 0x600), metrics(2, 1, 7));

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

void write_synthetic_dir(const fs::path& dir, std::size_t n) {
  std::vector<ThreadProfile> profiles;
  profiles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) profiles.push_back(make_profile(i));
  binfmt::ModuleRegistry no_modules;
  core::write_measurement_dir(dir, profiles,
                              binfmt::StructureData::capture(no_modules));
}

std::string read_bytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The v4 on-disk layout of `p`, reconstructed analytically: exclusive
/// end offsets of every record (string entry, CCT node, or access-pattern
/// entry), the points where record counts are declared, and the payload
/// size. Mirrors ThreadProfile::write so the truncation sweep can predict
/// the salvage outcome at any cut.
struct Layout {
  std::vector<std::size_t> record_ends;
  std::vector<std::pair<std::size_t, std::size_t>> declares;  // (end, count)
  std::size_t payload = 0;
};

Layout layout_of(const ThreadProfile& p) {
  constexpr std::size_t kHeaderBytes =
      4 + 4 + 4 + 8 + 8 + 4 + 4 + 4;  // magic..nstrings
  const std::size_t node_bytes = 1 + 8 + 4 + 8 * core::kNumMetrics;
  Layout l;
  std::size_t off = kHeaderBytes;
  l.declares.emplace_back(off, p.strings.size());
  for (std::size_t i = 0; i < p.strings.size(); ++i) {
    off += 4 + p.strings.str(i).size();
    l.record_ends.push_back(off);
  }
  for (const auto& c : p.ccts) {
    off += 4;  // node-count declaration
    l.declares.emplace_back(off, c.size());
    for (std::size_t i = 0; i < c.size(); ++i) {
      off += node_bytes;
      l.record_ends.push_back(off);
    }
  }
  const std::size_t pattern_bytes =
      1 + 8 + 8 + 8 +
      8 * (2 * core::kNumMemLevels + 2 * core::kPatternBuckets);
  off += 4;  // pattern-count declaration
  l.declares.emplace_back(off, p.patterns.size());
  for (std::size_t i = 0; i < p.patterns.size(); ++i) {
    off += pattern_bytes;
    l.record_ends.push_back(off);
  }
  l.payload = off;
  return l;
}

std::size_t records_within(const Layout& l, std::size_t cut) {
  std::size_t n = 0;
  for (const std::size_t end : l.record_ends) n += (end <= cut) ? 1 : 0;
  return n;
}

std::size_t declared_within(const Layout& l, std::size_t cut) {
  std::size_t n = 0;
  for (const auto& [end, count] : l.declares) n += (end <= cut) ? count : 0;
  return n;
}

TEST(CrashSafety, TruncationAtEveryByteIsRejectedAndSalvagedExactly) {
  ThreadProfile p = make_profile(5);
  // Populate the v4 access-pattern section so the sweep also cuts inside
  // pattern entries, not just strings and CCT nodes.
  core::PatternRecorder rec(p.patterns);
  for (int a = 0; a < 6; ++a) {
    rec.record(static_cast<std::uint8_t>(StorageClass::kHeap), 0x99,
               0x9000 + 64 * static_cast<std::uint64_t>(a % 3), a % 2 == 0,
               4);
  }
  rec.record(static_cast<std::uint8_t>(StorageClass::kStatic), 0, 0x4000,
             false, 1);
  const std::string bytes = serialized(p);
  const Layout l = layout_of(p);
  constexpr std::size_t kFooterBytes = 4 + 8 + 4;
  ASSERT_EQ(l.payload + kFooterBytes, bytes.size());
  const std::size_t total = l.record_ends.size();

  // Sanity: the intact stream round-trips, and salvage reports it clean.
  {
    EXPECT_EQ(serialized(ThreadProfile::read(bytes)), bytes);
    SalvageResult sr;
    ThreadProfile::read_salvage(bytes, sr);
    EXPECT_TRUE(sr.clean);
    EXPECT_EQ(sr.records_kept, total);
    EXPECT_EQ(sr.records_dropped, 0u);
  }

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::string prefix = bytes.substr(0, cut);
    EXPECT_THROW(ThreadProfile::read(prefix), std::runtime_error)
        << "cut at " << cut;
    SalvageResult sr;
    const ThreadProfile sal = ThreadProfile::read_salvage(prefix, sr);
    ASSERT_FALSE(sr.clean) << "cut at " << cut;
    ASSERT_FALSE(sr.error.empty()) << "cut at " << cut;
    const std::size_t kept = records_within(l, cut);
    const std::size_t declared = declared_within(l, cut);
    ASSERT_EQ(sr.records_kept, kept) << "cut at " << cut;
    ASSERT_EQ(sr.records_dropped, declared - kept) << "cut at " << cut;
    // A cut inside the footer loses framing assurance but no records.
    if (cut >= l.payload) {
      ASSERT_EQ(sr.records_kept, total) << "cut at " << cut;
      ASSERT_EQ(sr.records_dropped, 0u) << "cut at " << cut;
    }
    // The salvaged prefix is a well-formed profile (parents precede
    // children), so re-serializing it must not throw.
    std::ostringstream sink;
    sal.write(sink);
  }
}

TEST(CrashSafety, FooterDetectsBitFlipsLengthLiesAndBadMagic) {
  const ThreadProfile p = make_profile(2);
  const std::string good = serialized(p);
  const Layout l = layout_of(p);

  const auto read_error = [](const std::string& bytes) -> std::string {
    try {
      ThreadProfile::read(bytes);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "";
  };

  // Flip one payload bit (inside the last node's metrics: structurally
  // still a valid profile, so only the checksum can catch it).
  std::string flipped = good;
  flipped[l.payload - 5] ^= 0x01;
  EXPECT_NE(read_error(flipped).find("checksum mismatch"), std::string::npos);
  // A structurally-valid-but-flipped file salvages whole: every record
  // is readable, only the integrity guarantee is gone.
  {
    SalvageResult sr;
    ThreadProfile::read_salvage(flipped, sr);
    EXPECT_FALSE(sr.clean);
    EXPECT_EQ(sr.records_kept, l.record_ends.size());
    EXPECT_EQ(sr.records_dropped, 0u);
    EXPECT_NE(sr.error.find("checksum mismatch"), std::string::npos);
  }

  std::string bad_crc = good;
  bad_crc[good.size() - 1] ^= 0x01;  // stored CRC itself
  EXPECT_NE(read_error(bad_crc).find("checksum mismatch"), std::string::npos);

  std::string bad_len = good;
  bad_len[l.payload + 4] ^= 0x01;  // footer payload-length field
  EXPECT_NE(read_error(bad_len).find("payload length mismatch"),
            std::string::npos);

  std::string bad_magic = good;
  bad_magic[l.payload] ^= 0x01;  // footer magic
  EXPECT_NE(read_error(bad_magic).find("bad footer magic"), std::string::npos);
}

TEST(CrashSafety, AtomicWriteIsDurableAndLeavesNoTemporary) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path target = dir.path / "profile-0-0.dcpf";
  core::write_file_atomic(target, "first contents");
  EXPECT_EQ(read_bytes(target), "first contents");
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  // Overwrite goes through the same tmp+rename dance.
  core::write_file_atomic(target, "second contents");
  EXPECT_EQ(read_bytes(target), "second contents");
  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
}

TEST(CrashSafety, AtomicWriteRefusesNonRegularTarget) {
  TempDir dir;
  fs::create_directories(dir.path);
  const fs::path fifo = dir.path / "metrics.fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0644), 0);
  const fs::path real = dir.path / "real.json";
  write_bytes(real, "original");
  const fs::path link = dir.path / "link.json";
  fs::create_symlink(real, link);
  const fs::path subdir = dir.path / "subdir";
  fs::create_directory(subdir);

  // rename() would swap each of these for a regular file (the link
  // itself, not its target); the writer must refuse without touching it.
  for (const fs::path& target : {fifo, link, subdir}) {
    try {
      core::write_file_atomic(target, "replacement");
      ADD_FAILURE() << "no error writing over " << target;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(target.string()), std::string::npos) << what;
      EXPECT_NE(what.find("not a regular file"), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(fs::is_fifo(fs::symlink_status(fifo)));
  EXPECT_TRUE(fs::is_symlink(fs::symlink_status(link)));
  EXPECT_EQ(fs::read_symlink(link), real);
  EXPECT_EQ(read_bytes(real), "original");
  EXPECT_TRUE(fs::is_directory(fs::symlink_status(subdir)));
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_EQ(e.path().filename().string().find(".tmp."), std::string::npos)
        << e.path();
  }
}

TEST(CrashSafety, InterruptedWriteOutIsInvisibleToAnalysis) {
  TempDir dir;
  write_synthetic_dir(dir.path, 4);
  // A full write-out leaves no temporaries behind.
  for (const auto& e : fs::directory_iterator(dir.path)) {
    EXPECT_NE(e.path().extension(), ".tmp") << e.path();
  }
  std::vector<ThreadProfile> all;
  for (const auto& f : core::list_profile_files(dir.path)) {
    all.push_back(core::read_profile_file(f));
  }
  const std::string expected = serialized(reduce(std::move(all)));

  // Simulate a measurement process killed mid-write: the victim's bytes
  // only ever exist under the `.tmp` name, so the partial file never
  // shadows a final `.dcpf` name.
  const std::string partial = serialized(make_profile(9)).substr(0, 33);
  write_bytes(dir.path / "profile-1-1.dcpf.tmp", partial);
  write_bytes(dir.path / "structure.dcst.tmp", "torn");

  EXPECT_EQ(core::list_profile_files(dir.path).size(), 4u);
  const AnalysisResult r = Analyzer().run(dir.path);
  EXPECT_EQ(r.files_discovered, 4u);
  EXPECT_EQ(r.files_read, 4u);
  EXPECT_EQ(r.files_skipped, 0u);
  EXPECT_EQ(serialized(r.merged), expected);
}

TEST(CrashSafety, StrictReadNamesTheFileAtEveryFailureKind) {
  TempDir dir;
  write_synthetic_dir(dir.path, 1);
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 1u);
  const std::string good = read_bytes(files[0]);
  const ThreadProfile p = core::read_profile_file(files[0]);
  const Layout l = layout_of(p);

  const auto expect_named_error = [&](const std::string& bytes,
                                      const char* what) {
    write_bytes(files[0], bytes);
    try {
      core::read_profile_file(files[0]);
      FAIL() << "expected failure: " << what;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(name_of(files[0])),
                std::string::npos)
          << what << ": " << e.what();
    }
  };

  // Cut exactly at a record boundary (between two CCT nodes), mid-record,
  // and with junk appended after the footer.
  expect_named_error(good.substr(0, l.record_ends[l.record_ends.size() / 2]),
                     "record-boundary truncation");
  expect_named_error(good.substr(0, l.record_ends.back() - 7),
                     "mid-record truncation");
  expect_named_error(good + "xx", "trailing bytes");
  // Salvaging the same file keeps the one record that fully arrived.
  write_bytes(files[0], good.substr(0, l.record_ends.front()));
  SalvageResult sr;
  ThreadProfile::read_salvage(core::read_file(files[0]), sr);
  EXPECT_FALSE(sr.clean);
  EXPECT_EQ(sr.records_kept, 1u);
}

TEST(CrashSafety, QuarantineMatchesSkipByteIdenticallyAndMovesTheShard) {
  TempDir dir;
  write_synthetic_dir(dir.path, 6);
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 6u);
  // Corrupt one shard with a single payload bit flip (checksum failure).
  std::string bytes = read_bytes(files[2]);
  bytes[bytes.size() - 17] ^= 0x01;  // last payload byte (a metric)
  write_bytes(files[2], bytes);

  std::vector<ThreadProfile> good;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i == 2) continue;
    good.push_back(core::read_profile_file(files[i]));
  }
  const std::string expected = serialized(reduce(std::move(good)));

  // kSkip leaves the directory untouched.
  for (const int workers : {1, 3}) {
    Analyzer::Options opts;
    opts.workers = workers;
    const AnalysisResult r = Analyzer(opts).run(dir.path);
    EXPECT_EQ(serialized(r.merged), expected) << workers << " workers";
    EXPECT_EQ(r.files_skipped, 1u);
    EXPECT_EQ(r.files_quarantined, 0u);
  }
  EXPECT_TRUE(fs::exists(files[2]));

  // kQuarantine folds the same bytes and moves the corrupt file aside.
  Analyzer::Options opts;
  opts.corrupt_policy = CorruptPolicy::kQuarantine;
  const AnalysisResult r = Analyzer(opts).run(dir.path);
  EXPECT_EQ(serialized(r.merged), expected);
  EXPECT_EQ(r.files_skipped, 1u);
  ASSERT_EQ(r.files_quarantined, 1u);
  ASSERT_EQ(r.quarantined.size(), 1u);
  EXPECT_NE(r.quarantined[0].find(name_of(files[2])),
            std::string::npos);
  const fs::path dest =
      dir.path / core::kQuarantineDirName / fs::path(files[2]).filename();
  EXPECT_FALSE(fs::exists(files[2]));
  EXPECT_TRUE(fs::exists(dest));

  // The quarantined shard is gone from discovery: a re-run sees a clean
  // directory and the identical aggregate.
  EXPECT_EQ(core::list_profile_files(dir.path).size(), 5u);
  const AnalysisResult again = Analyzer().run(dir.path);
  EXPECT_EQ(again.files_discovered, 5u);
  EXPECT_EQ(again.files_skipped, 0u);
  EXPECT_EQ(serialized(again.merged), expected);
}

TEST(CrashSafety, SalvageModeFoldsTheValidPrefixIntoTheMerge) {
  TempDir dir;
  write_synthetic_dir(dir.path, 5);
  const auto files = core::list_profile_files(dir.path);
  ASSERT_EQ(files.size(), 5u);
  const ThreadProfile victim = core::read_profile_file(files[1]);
  const Layout l = layout_of(victim);
  // Cut at a record boundary in the middle of the heap CCT, so some of
  // its declared nodes (and the sections after it) are lost.
  const std::size_t cut = l.record_ends[l.record_ends.size() / 2];
  write_bytes(files[1], read_bytes(files[1]).substr(0, cut));
  const std::size_t kept = records_within(l, cut);
  const std::size_t dropped = declared_within(l, cut) - kept;
  ASSERT_GT(kept, 0u);
  ASSERT_GT(dropped, 0u);

  // Expected: the sequential fold in file order, with the victim
  // replaced by its salvaged prefix.
  std::optional<ThreadProfile> merged;
  for (std::size_t i = 0; i < files.size(); ++i) {
    ThreadProfile p;
    if (i == 1) {
      SalvageResult sr;
      p = ThreadProfile::read_salvage(core::read_file(files[i]), sr);
      ASSERT_EQ(sr.records_kept, kept);
    } else {
      p = core::read_profile_file(files[i]);
    }
    if (!merged) {
      merged = std::move(p);
    } else {
      merge_into(*merged, p);
    }
  }
  const std::string expected = serialized(*merged);

  for (const int workers : {1, 3}) {
    Analyzer::Options opts;
    opts.workers = workers;
    opts.salvage = true;
    const AnalysisResult r = Analyzer(opts).run(dir.path);
    EXPECT_EQ(serialized(r.merged), expected) << workers << " workers";
    EXPECT_EQ(r.files_read, 4u);
    EXPECT_EQ(r.files_salvaged, 1u);
    EXPECT_EQ(r.records_salvaged, kept);
    EXPECT_EQ(r.records_dropped, dropped);
    // Salvage accounting: the salvaged file's bytes were read and its
    // prefix merged, so they count as streamed work, and the reader
    // table covers salvaged files alongside fully-validated ones.
    std::uint64_t profile_bytes = 0;
    std::size_t shard_files = 0;
    std::uint64_t shard_bytes = 0;
    for (const auto& f : files) profile_bytes += fs::file_size(f);
    for (const auto& s : r.readers) {
      shard_files += s.files;
      shard_bytes += s.bytes;
    }
    EXPECT_EQ(r.bytes_streamed,
              profile_bytes + fs::file_size(dir.path / "structure.dcst"))
        << workers << " workers";
    EXPECT_EQ(shard_files, r.files_read + r.files_salvaged)
        << workers << " workers";
    EXPECT_EQ(shard_bytes, profile_bytes) << workers << " workers";
    ASSERT_EQ(r.salvaged.size(), 1u);
    EXPECT_NE(r.salvaged[0].find("kept " + std::to_string(kept)),
              std::string::npos);
    EXPECT_NE(r.salvaged[0].find("dropped " + std::to_string(dropped)),
              std::string::npos);
  }

  // Without salvage the same directory folds only the intact files —
  // the prefix must never leak into the default aggregate.
  std::vector<ThreadProfile> intact;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (i != 1) intact.push_back(core::read_profile_file(files[i]));
  }
  const AnalysisResult plain = Analyzer().run(dir.path);
  EXPECT_EQ(serialized(plain.merged), serialized(reduce(std::move(intact))));
  EXPECT_EQ(plain.files_salvaged, 0u);
}

namespace oldfmt {

/// Metric slots per node record in v2 and v3 (before the load/store
/// channel split).
constexpr std::size_t kOldNodeMetrics = 8;

void put_u32(std::string& o, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    o.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void put_u64(std::string& o, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    o.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// The removed v2 format: no flags/periods, no footer, 8 metric slots.
/// Written by hand so the rejection guarantee is tested against the
/// actual v2 byte layout, not whatever the current writer produces.
std::string serialize_v2(const ThreadProfile& p) {
  std::string o;
  put_u32(o, 0x64637066);  // "dcpf"
  put_u32(o, 2);
  put_u32(o, static_cast<std::uint32_t>(p.rank));
  put_u32(o, static_cast<std::uint32_t>(p.tid));
  put_u32(o, static_cast<std::uint32_t>(p.strings.size()));
  for (std::size_t i = 0; i < p.strings.size(); ++i) {
    const std::string& s = p.strings.str(i);
    put_u32(o, static_cast<std::uint32_t>(s.size()));
    o.append(s);
  }
  for (const auto& c : p.ccts) {
    put_u32(o, static_cast<std::uint32_t>(c.size()));
    for (const auto& n : c.nodes()) {
      o.push_back(static_cast<char>(n.kind));
      put_u64(o, n.sym);
      put_u32(o, n.parent);
      for (std::size_t m = 0; m < kOldNodeMetrics; ++m) {
        put_u64(o, n.metrics.v[m]);
      }
    }
  }
  return o;
}

/// The removed v3 format: same framing as v4 but 8 metric slots per node
/// and no access-pattern section. Hand-written for the same reason.
std::string serialize_v3(const ThreadProfile& p) {
  std::string payload;
  put_u32(payload, 0x64637066);  // "dcpf"
  put_u32(payload, 3);
  put_u32(payload, 0);  // flags
  put_u64(payload, p.sampling_period);
  put_u64(payload, p.sampling_period);
  put_u32(payload, static_cast<std::uint32_t>(p.rank));
  put_u32(payload, static_cast<std::uint32_t>(p.tid));
  put_u32(payload, static_cast<std::uint32_t>(p.strings.size()));
  for (std::size_t i = 0; i < p.strings.size(); ++i) {
    const std::string& s = p.strings.str(i);
    put_u32(payload, static_cast<std::uint32_t>(s.size()));
    payload.append(s);
  }
  for (const auto& c : p.ccts) {
    put_u32(payload, static_cast<std::uint32_t>(c.size()));
    for (const auto& n : c.nodes()) {
      payload.push_back(static_cast<char>(n.kind));
      put_u64(payload, n.sym);
      put_u32(payload, n.parent);
      for (std::size_t m = 0; m < kOldNodeMetrics; ++m) {
        put_u64(payload, n.metrics.v[m]);
      }
    }
  }
  std::string o = payload;
  put_u32(o, 0x64637074);  // "dcpt"
  put_u64(o, static_cast<std::uint64_t>(payload.size()));
  put_u32(o, core::crc32c(payload));
  return o;
}

}  // namespace oldfmt

TEST(CrashSafety, V2ProfilesAreRejectedWithClearError) {
  const ThreadProfile p = make_profile(3);
  const std::string old_bytes = oldfmt::serialize_v2(p);

  // Every strict entry point rejects with an error that names the cause.
  try {
    ThreadProfile::read(old_bytes);
    FAIL() << "v2 profile was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported profile version 2"),
              std::string::npos)
        << e.what();
  }

  // The salvaging read keeps nothing: the version check precedes any
  // record, so there is no valid prefix to keep.
  SalvageResult sr;
  const ThreadProfile empty = ThreadProfile::read_salvage(old_bytes, sr);
  EXPECT_FALSE(sr.clean);
  EXPECT_EQ(sr.records_kept, 0u);
  EXPECT_EQ(empty.total_samples(), 0u);

  // A v2 file in a measurement directory is skipped (not merged) and the
  // skip reason is surfaced.
  TempDir dir;
  binfmt::ModuleRegistry no_modules;
  core::write_measurement_dir(dir.path, {make_profile(1)},
                              binfmt::StructureData::capture(no_modules));
  core::write_file_atomic(dir.path / "profile-0-3.dcpf", old_bytes);
  const AnalysisResult r = Analyzer().run(dir.path);
  EXPECT_EQ(r.files_read, 1u);
  EXPECT_EQ(r.files_skipped, 1u);
  ASSERT_EQ(r.skipped.size(), 1u);
  EXPECT_NE(r.skipped[0].find("unsupported profile version 2"),
            std::string::npos);
}

TEST(CrashSafety, V3ProfilesAreRejectedWithClearError) {
  const ThreadProfile p = make_profile(3);
  const std::string old_bytes = oldfmt::serialize_v3(p);

  // v3 is well framed (footer and CRC intact), so only the version word
  // tells it apart: every entry point names version 3 and the remedy.
  const auto expect_v3_error = [](const std::string& what) {
    EXPECT_NE(what.find("unsupported profile version 3"), std::string::npos)
        << what;
    EXPECT_NE(what.find("re-record"), std::string::npos) << what;
  };
  try {
    ThreadProfile::read(old_bytes);
    FAIL() << "v3 profile was accepted";
  } catch (const std::runtime_error& e) {
    expect_v3_error(e.what());
  }
  expect_v3_error(ThreadProfile::check_framing(old_bytes));

  // The salvaging read keeps nothing: no v3 record is read as v4.
  SalvageResult sr;
  const ThreadProfile empty = ThreadProfile::read_salvage(old_bytes, sr);
  EXPECT_FALSE(sr.clean);
  EXPECT_EQ(sr.records_kept, 0u);
  EXPECT_EQ(empty.total_samples(), 0u);

  // Both shard folds skip a v3 file with that reason: the batch
  // analyzer and the ingestion daemon.
  TempDir dir;
  binfmt::ModuleRegistry no_modules;
  core::write_measurement_dir(dir.path, {make_profile(1)},
                              binfmt::StructureData::capture(no_modules));
  core::write_file_atomic(dir.path / "profile-0-3.dcpf", old_bytes);
  const AnalysisResult r = Analyzer().run(dir.path);
  EXPECT_EQ(r.files_read, 1u);
  EXPECT_EQ(r.files_skipped, 1u);
  ASSERT_EQ(r.skipped.size(), 1u);
  expect_v3_error(r.skipped[0]);

  IngestOptions opts;
  opts.checkpoint = dir.path / "ingest.dcck";
  opts.claim = false;
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 1u);
  const IngestStats st = service.stats();
  EXPECT_EQ(st.skipped, 1u);
  EXPECT_EQ(st.resumes, 0u);
  ASSERT_EQ(st.skip_reasons.size(), 1u);
  expect_v3_error(st.skip_reasons[0]);
}

sim::MachineConfig tiny() {
  sim::MachineConfig cfg;
  cfg.sockets = 1;
  cfg.cores_per_socket = 2;
  cfg.l1 = sim::CacheConfig{1024, 2, 64};
  cfg.l2 = sim::CacheConfig{4096, 4, 64};
  cfg.l3 = sim::CacheConfig{16384, 8, 64};
  return cfg;
}

/// Runs a small attached kernel (IBS at period 8) and returns the
/// profiles it took.
std::vector<ThreadProfile> run_kernel(int n_loads) {
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
  for (int i = 0; i < n_loads; ++i) {
    t.load(block + static_cast<sim::Addr>(i % 1000) * 8, 8, 0x400000);
  }
  machine.set_observer(nullptr);
  return profiler.take_profiles();
}

/// The little-endian word of `width` bytes at `off` in `bytes`.
std::uint64_t word_at(const std::string& bytes, std::size_t off,
                      std::size_t width) {
  std::uint64_t v = 0;
  for (std::size_t b = width; b-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(bytes[off + b]);
  }
  return v;
}

/// `good` with the header word of `width` bytes at `off` set to `v` and
/// the footer recomputed: a well-framed shard with a foreign header.
std::string with_header_word(const std::string& good, std::size_t off,
                             std::size_t width, std::uint64_t v) {
  std::string payload = good.substr(0, good.size() - test::kDcpfFooterBytes);
  for (std::size_t b = 0; b < width; ++b) {
    payload[off + b] = static_cast<char>((v >> (8 * b)) & 0xffu);
  }
  return test::with_footer(std::move(payload));
}

// Header offsets: magic 0, version 4, flags 8, sampling period 12 and
// its second slot 20.
constexpr std::size_t kFlagsAt = 8;
constexpr std::size_t kPeriodAt = 12;
constexpr std::size_t kSecondPeriodAt = 20;

TEST(CrashSafety, PeriodsAreStampedEvenWithoutThrottling) {
  const std::vector<ThreadProfile> profiles = run_kernel(128);
  ASSERT_FALSE(profiles.empty());
  const ThreadProfile& tp = profiles.front();
  EXPECT_EQ(tp.sampling_period, 8u);
  // The header stores flags 0 and the one period in both slots.
  const std::string bytes = serialized(tp);
  EXPECT_EQ(word_at(bytes, kFlagsAt, 4), 0u);
  EXPECT_EQ(word_at(bytes, kPeriodAt, 8), 8u);
  EXPECT_EQ(word_at(bytes, kSecondPeriodAt, 8), 8u);
}

TEST(CrashSafety, RaisedPeriodShardIsRejectedWithClearError) {
  // Builds with the overload throttle wrote a raised period into the
  // second slot and set flag bit 0. No writer emits that header now, so
  // it is built by hand; it stays well framed (footer and CRC intact).
  ThreadProfile tp = make_profile(0);
  tp.sampling_period = 8;
  const std::string good = serialized(tp);
  const std::string raised = with_header_word(
      with_header_word(good, kSecondPeriodAt, 8, 32), kFlagsAt, 4, 1);

  // Every entry point names both periods and the remedy.
  const auto expect_period_error = [](const std::string& what) {
    EXPECT_NE(what.find("8 and 32"), std::string::npos) << what;
    EXPECT_NE(what.find("re-record"), std::string::npos) << what;
  };
  try {
    ThreadProfile::read(raised);
    FAIL() << "raised-period profile was accepted";
  } catch (const std::runtime_error& e) {
    expect_period_error(e.what());
  }
  expect_period_error(ThreadProfile::check_framing(raised));

  // The salvaging read keeps nothing: the header check precedes any
  // record.
  SalvageResult sr;
  const ThreadProfile empty = ThreadProfile::read_salvage(raised, sr);
  EXPECT_FALSE(sr.clean);
  EXPECT_EQ(sr.records_kept, 0u);
  EXPECT_EQ(empty.total_samples(), 0u);
  expect_period_error(sr.error);

  // A set flag is rejected even when the two periods agree.
  const std::string flagged = with_header_word(good, kFlagsAt, 4, 1);
  EXPECT_THROW(ThreadProfile::read(flagged), std::runtime_error);
  EXPECT_NE(ThreadProfile::check_framing(flagged).find("re-record"),
            std::string::npos);

  // Both shard folds skip it with that reason, as a plain skip: the
  // batch analyzer folds the other shard alone, and the ingestion daemon
  // neither rolls back nor re-folds.
  TempDir dir;
  binfmt::ModuleRegistry no_modules;
  const ThreadProfile steady = make_profile(1);
  core::write_measurement_dir(dir.path, {steady},
                              binfmt::StructureData::capture(no_modules));
  core::write_file_atomic(dir.path / "profile-0-3.dcpf", raised);
  const AnalysisResult r = Analyzer().run(dir.path);
  EXPECT_EQ(r.files_read, 1u);
  EXPECT_EQ(r.files_skipped, 1u);
  ASSERT_EQ(r.skipped.size(), 1u);
  expect_period_error(r.skipped[0]);
  EXPECT_EQ(serialized(r.merged), serialized(steady));

  IngestOptions opts;
  opts.checkpoint = dir.path / "ingest.dcck";
  opts.claim = false;
  IngestService service(dir.path, opts);
  EXPECT_EQ(service.poll_once(), 1u);
  const IngestStats st = service.stats();
  EXPECT_EQ(st.files, 1u);
  EXPECT_EQ(st.skipped, 1u);
  EXPECT_EQ(st.resumes, 0u);
  ASSERT_EQ(st.skip_reasons.size(), 1u);
  expect_period_error(st.skip_reasons[0]);
}

}  // namespace
}  // namespace dcprof::analysis
