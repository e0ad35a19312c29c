// Tests for the verification subsystem itself: the oracle differential,
// the trace fuzzer, the .dcpf mutational fuzzer, and the well-formedness
// checker. These are small campaigns — the big ones run as dedicated
// ctest entries (verify_traces, verify_fuzz) and in the sanitizer CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/merge.h"
#include "core/checksum.h"
#include "core/profile.h"
#include "support/rng.h"
#include "verify/fuzz_dcpf.h"
#include "verify/invariants.h"
#include "verify/oracle.h"
#include "verify/trace_gen.h"

namespace dcprof {
namespace {

using core::Cct;
using core::MetricVec;
using core::NodeKind;
using core::ThreadProfile;
using test::Rng;

ThreadProfile random_profile(std::uint64_t seed) {
  Rng rng(seed);
  ThreadProfile p;
  p.rank = 0;
  p.tid = static_cast<std::int32_t>(rng.next(16));
  for (int i = 0; i < 60; ++i) {
    auto& cct = p.ccts[rng.next(core::kNumStorageClasses)];
    Cct::NodeId cur = Cct::kRootId;
    const int depth = 1 + static_cast<int>(rng.next(6));
    for (int d = 0; d < depth; ++d) {
      cur = cct.child(cur, NodeKind::kCallSite, rng.next(32));
    }
    if (rng.chance(1, 4)) {
      cur = cct.child(cur, NodeKind::kVarStatic,
                      p.strings.intern("v" + std::to_string(rng.next(5))));
    }
    const auto leaf = cct.child(cur, NodeKind::kLeafInstr, rng.next(64));
    MetricVec m;
    for (std::size_t k = 0; k < core::kNumMetrics; ++k) {
      m.v[k] = rng.next(100);
    }
    cct.add_metrics(leaf, m);
  }
  return p;
}

TEST(TraceDifferential, SmallCampaignIsClean) {
  const std::uint64_t base_seed = 7;
  SCOPED_TRACE(test::seed_note(base_seed));
  const auto failures = verify::run_trace_campaign(base_seed, 5);
  for (const auto& r : failures) {
    ADD_FAILURE() << r.summary();
  }
}

TEST(TraceDifferential, ReportIsReproducible) {
  const std::uint64_t seed = 42;
  SCOPED_TRACE(test::seed_note(seed));
  const verify::TraceReport a = verify::run_trace_differential(seed);
  const verify::TraceReport b = verify::run_trace_differential(seed);
  EXPECT_TRUE(a.ok()) << a.summary();
  EXPECT_EQ(a.threads, b.threads);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_EQ(a.profiles, b.profiles);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_GT(a.samples, 0u) << "trace delivered no samples — generator dead?";
}

TEST(DcpfFuzz, SmallCampaignHoldsTheReaderContract) {
  verify::FuzzOptions opts;
  opts.base_seed = 11;
  opts.count = 150;
  SCOPED_TRACE(test::seed_note(opts.base_seed));
  const verify::FuzzReport report = verify::run_fuzz(opts);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << "seed " << f.seed << ": " << f.what;
  }
  EXPECT_EQ(report.cases, opts.count);
  // The mutator must exercise both sides of the accept/reject boundary,
  // or it is either too gentle or pure noise.
  EXPECT_GT(report.accepted, 0u);
  EXPECT_GT(report.rejected, 0u);
}

TEST(DcpfFuzz, BuiltinCorpusIsValid) {
  const auto corpus = verify::builtin_corpus();
  const auto names = verify::builtin_corpus_names();
  ASSERT_EQ(corpus.size(), names.size());
  ASSERT_GE(corpus.size(), 5u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    SCOPED_TRACE(names[i]);
    ThreadProfile p;
    ASSERT_NO_THROW(p = ThreadProfile::read(corpus[i]))
        << "corpus entry rejected";
    const verify::CheckResult check = verify::check_profile(p);
    EXPECT_TRUE(check.ok()) << check.summary();
  }
  // Same bytes on every call — the corpus is a fixed point, not random.
  EXPECT_EQ(verify::builtin_corpus(), corpus);
}

TEST(Invariants, FlagsOutOfRangeStaticVarSymbol) {
  ThreadProfile p;
  auto& cct = p.ccts[static_cast<std::size_t>(core::StorageClass::kStatic)];
  // kVarStatic sym 99 with an empty string table: dangling reference.
  const auto node = cct.child(Cct::kRootId, NodeKind::kVarStatic, 99);
  MetricVec m;
  m.v[0] = 1;
  cct.add_metrics(node, m);
  const verify::CheckResult check = verify::check_profile(p);
  EXPECT_FALSE(check.ok());
}

TEST(Invariants, CanonicalEqualIgnoresInsertionOrder) {
  ThreadProfile a;
  ThreadProfile b;
  // Same logical tree, built in opposite sibling order and with string
  // ids interned in opposite order.
  auto build = [](ThreadProfile& p, bool flipped) {
    auto& cct = p.ccts[static_cast<std::size_t>(core::StorageClass::kStatic)];
    const auto add = [&](const char* name, std::uint64_t weight) {
      const auto n = cct.child(Cct::kRootId, NodeKind::kVarStatic,
                               p.strings.intern(name));
      MetricVec m;
      m.v[0] = weight;
      cct.add_metrics(n, m);
    };
    if (flipped) {
      add("beta", 2);
      add("alpha", 1);
    } else {
      add("alpha", 1);
      add("beta", 2);
    }
  };
  build(a, false);
  build(b, true);
  std::string why;
  EXPECT_TRUE(verify::canonical_equal(a, b, &why)) << why;

  // And a real difference is still a difference.
  MetricVec extra;
  extra.v[0] = 5;
  auto& cct = b.ccts[static_cast<std::size_t>(core::StorageClass::kStatic)];
  cct.add_metrics(cct.child(Cct::kRootId, NodeKind::kCallSite, 7), extra);
  EXPECT_FALSE(verify::canonical_equal(a, b));
}

TEST(Invariants, MergeAlgebraHoldsOnRandomProfiles) {
  for (std::uint64_t seed : {3u, 17u, 23u}) {
    SCOPED_TRACE(test::seed_note(seed));
    std::vector<ThreadProfile> profiles;
    for (int i = 0; i < 3; ++i) {
      profiles.push_back(random_profile(Rng::mix(seed, i)));
    }
    const verify::CheckResult check = verify::check_merge_algebra(profiles);
    EXPECT_TRUE(check.ok()) << check.summary();
  }
}

TEST(Oracle, ReduceMatchesProductionByteForByte) {
  for (std::uint64_t seed : {5u, 29u}) {
    SCOPED_TRACE(test::seed_note(seed));
    std::vector<ThreadProfile> inputs;
    for (int i = 0; i < 5; ++i) {
      inputs.push_back(random_profile(Rng::mix(seed, 100 + i)));
    }
    const ThreadProfile oracle = verify::oracle_reduce(inputs);
    const ThreadProfile prod = analysis::reduce(std::move(inputs));
    std::ostringstream oracle_bytes;
    std::ostringstream prod_bytes;
    oracle.write(oracle_bytes);
    prod.write(prod_bytes);
    EXPECT_EQ(oracle_bytes.str(), prod_bytes.str());
  }
}

// --- Reader-hardening regressions found by the fuzzer ------------------

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

/// Minimal current-version (v4) file with caller-chosen strings and one
/// CCT node list; the other four CCTs get a bare root, the pattern table
/// is empty, and the footer CRC is computed over the crafted payload.
std::string dcpf_file(const std::vector<std::string>& strings,
                      const std::string& first_cct_nodes,
                      std::uint32_t first_cct_count) {
  std::string out;
  put_u32(out, 0x64637066);  // magic
  put_u32(out, core::kProfileFormatVersion);
  put_u32(out, 0);  // flags
  put_u64(out, 0);  // sampling period
  put_u64(out, 0);  // effective period
  put_u32(out, 0);  // rank
  put_u32(out, 0);  // tid
  put_u32(out, static_cast<std::uint32_t>(strings.size()));
  for (const auto& s : strings) {
    put_u32(out, static_cast<std::uint32_t>(s.size()));
    out += s;
  }
  const auto put_root_only = [&] {
    put_u32(out, 1);
    out.push_back(0);  // kind kRoot
    put_u64(out, 0);   // sym
    put_u32(out, 0);   // parent
    for (std::size_t k = 0; k < core::kNumMetrics; ++k) put_u64(out, 0);
  };
  put_u32(out, first_cct_count);
  out += first_cct_nodes;
  for (std::size_t c = 1; c < core::kNumStorageClasses; ++c) put_root_only();
  put_u32(out, 0);  // empty access-pattern table
  std::string framed = out;
  put_u32(framed, 0x64637074);  // footer magic
  put_u64(framed, static_cast<std::uint64_t>(out.size()));
  put_u32(framed, core::crc32c(out));
  return framed;
}

std::string root_node() {
  std::string n;
  n.push_back(0);  // kRoot
  put_u64(n, 0);
  put_u32(n, 0);
  for (std::size_t k = 0; k < core::kNumMetrics; ++k) put_u64(n, 0);
  return n;
}

TEST(ReaderHardening, RejectsDuplicateStringTableEntries) {
  // Interning would silently collapse the duplicates, leaving later
  // kVarStatic ids dangling — the reader must reject instead.
  const std::string bytes = dcpf_file({"x", "x"}, root_node(), 1);
  EXPECT_THROW(ThreadProfile::read(bytes), std::runtime_error);

  EXPECT_NO_THROW(ThreadProfile::read(dcpf_file({"x", "y"}, root_node(), 1)));
}

TEST(ReaderHardening, RejectsRootKindNodeBelowTheRoot) {
  // A kRoot node at id > 0 encodes to the child index's empty-slot tag.
  std::string nodes = root_node();
  nodes.push_back(0);  // kind kRoot, at id 1
  put_u64(nodes, 0);
  put_u32(nodes, 0);  // parent 0
  for (std::size_t k = 0; k < core::kNumMetrics; ++k) put_u64(nodes, 0);
  const std::string bytes = dcpf_file({}, nodes, 2);
  EXPECT_THROW(ThreadProfile::read(bytes), std::runtime_error);
}

}  // namespace
}  // namespace dcprof
