#include "verify/fuzz_dcpf.h"

#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "analysis/merge.h"
#include "core/checksum.h"
#include "core/profile.h"
#include "verify/invariants.h"
#include "verify/rng.h"

namespace dcprof::verify {

using core::Cct;
using core::Metric;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

namespace {

// --- Corpus construction ----------------------------------------------

MetricVec metrics(std::uint64_t samples, std::uint64_t latency = 0,
                  Metric hit = Metric::kL1Hits, std::uint64_t hits = 0) {
  MetricVec m;
  m[Metric::kSamples] = samples;
  m[Metric::kLatency] = latency;
  m[hit] = hits;
  return m;
}

ThreadProfile make_basic() {
  ThreadProfile p;
  p.rank = 0;
  p.tid = 2;
  p.sampling_period = 1024;
  p.effective_period = 1024;

  Cct& nomem = p.cct(StorageClass::kNoMem);
  const auto f1 = nomem.child(0, NodeKind::kCallSite, 0x100);
  nomem.add_metrics(nomem.child(f1, NodeKind::kLeafInstr, 0x104),
                    metrics(3));

  Cct& heap = p.cct(StorageClass::kHeap);
  const auto a1 = heap.child(0, NodeKind::kCallSite, 0x200);
  const auto ap = heap.child(a1, NodeKind::kAllocPoint, 0x208);
  const auto vd = heap.child(ap, NodeKind::kVarData, 0);
  const auto u1 = heap.child(vd, NodeKind::kCallSite, 0x100);
  heap.add_metrics(heap.child(u1, NodeKind::kLeafInstr, 0x110),
                   metrics(7, 900, Metric::kRemoteDram, 5));

  Cct& stat = p.cct(StorageClass::kStatic);
  const auto name = p.strings.intern("grid");
  const auto sv = stat.child(0, NodeKind::kVarStatic, name);
  stat.add_metrics(stat.child(sv, NodeKind::kLeafInstr, 0x114),
                   metrics(2, 80, Metric::kL2Hits, 2));

  Cct& stack = p.cct(StorageClass::kStack);
  const auto sname = p.strings.intern("stack (thread 2)");
  const auto sk = stack.child(0, NodeKind::kVarStatic, sname);
  stack.add_metrics(stack.child(sk, NodeKind::kLeafInstr, 0x118),
                    metrics(1, 12, Metric::kL1Hits, 1));

  p.cct(StorageClass::kUnknown)
      .add_metrics(p.cct(StorageClass::kUnknown)
                       .child(0, NodeKind::kLeafInstr, 0x11c),
                   metrics(1, 400, Metric::kLocalDram, 1));
  // v4 pattern records for the same variables (heap keyed by alloc IP,
  // static/stack by their interned name ids).
  for (int i = 0; i < 7; ++i) {
    p.patterns.record(static_cast<std::uint8_t>(StorageClass::kHeap), 0x208,
                      0x9000 + 64u * static_cast<unsigned>(i % 3), i % 2 == 0,
                      4);
  }
  p.patterns.record(static_cast<std::uint8_t>(StorageClass::kStatic), 0,
                    0x5000, false, 1);
  p.patterns.record(static_cast<std::uint8_t>(StorageClass::kStack), 1,
                    0x7000, true, 0);
  return p;
}

ThreadProfile make_throttled() {
  ThreadProfile p = make_basic();
  p.tid = 3;
  p.sampling_period = 1024;
  p.effective_period = 4096;  // sets the throttled header flag
  return p;
}

ThreadProfile make_strings_heavy() {
  ThreadProfile p;
  p.rank = 1;
  p.tid = 0;
  Cct& stat = p.cct(StorageClass::kStatic);
  for (int i = 0; i < 40; ++i) {
    const auto name = p.strings.intern("var_" + std::to_string(i));
    const auto sv = stat.child(0, NodeKind::kVarStatic, name);
    stat.add_metrics(
        stat.child(sv, NodeKind::kLeafInstr, 0x400 + 4u * i),
        metrics(1 + i, 10u * i, Metric::kL3Hits, 1));
  }
  return p;
}

ThreadProfile make_deep() {
  ThreadProfile p;
  p.tid = 1;
  Cct& nomem = p.cct(StorageClass::kNoMem);
  Cct::NodeId cur = 0;
  for (int d = 0; d < 30; ++d) {
    cur = nomem.child(cur, NodeKind::kCallSite, 0x1000 + 8u * d);
  }
  nomem.add_metrics(nomem.child(cur, NodeKind::kLeafInstr, 0x2000),
                    metrics(11));
  return p;
}

std::string serialized(const ThreadProfile& p) {
  std::ostringstream out;
  p.write(out);
  return std::move(out).str();
}

// --- Mutation ----------------------------------------------------------

/// Recomputes the footer over everything before it, as a buggy writer
/// would: the CRC then passes (so does check_framing, unless the header
/// is hit), and only the structural checks stand between the mutated
/// records and an aggregate — the poison-shard case.
void reseal(std::string& b) {
  constexpr std::size_t kFooterBytes = 4 + 8 + 4;
  if (b.size() < kFooterBytes) return;
  b.resize(b.size() - kFooterBytes);
  const std::uint64_t size = b.size();
  const std::uint32_t crc = core::crc32c(b);
  const auto put = [&](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  put(0x64637074u, 4);  // "dcpt"
  put(size, 8);
  put(crc, 4);
}

std::string mutate(const std::string& base, Rng& rng) {
  std::string b = base;
  const std::uint64_t rounds = 1 + rng.next(8);
  for (std::uint64_t round = 0; round < rounds; ++round) {
    switch (rng.next(7)) {
      case 0: {  // bit flip
        if (b.empty()) break;
        b[rng.next(b.size())] ^= static_cast<char>(1u << rng.next(8));
        break;
      }
      case 1: {  // byte set
        if (b.empty()) break;
        b[rng.next(b.size())] = static_cast<char>(rng.next(256));
        break;
      }
      case 2: {  // truncate
        b.resize(rng.next(b.size() + 1));
        break;
      }
      case 3: {  // erase a slice
        if (b.empty()) break;
        const std::size_t pos = rng.next(b.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next(64), b.size() - pos);
        b.erase(pos, len);
        break;
      }
      case 4: {  // duplicate a slice elsewhere
        if (b.empty()) break;
        const std::size_t pos = rng.next(b.size());
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next(64), b.size() - pos);
        const std::string slice = b.substr(pos, len);
        b.insert(rng.next(b.size() + 1), slice);
        break;
      }
      case 5: {  // stomp a u32 with an interesting value
        if (b.size() < 4) break;
        const std::uint32_t interesting[] = {
            0,          1,          2,          0xff,       0x01000000,
            0x7fffffff, 0xffffffff, 0x64637066, 0x64637074};
        const std::uint32_t v = interesting[rng.next(9)];
        const std::size_t pos = rng.next(b.size() - 3);
        for (int i = 0; i < 4; ++i) {
          b[pos + static_cast<std::size_t>(i)] =
              static_cast<char>((v >> (8 * i)) & 0xff);
        }
        break;
      }
      default: {  // append garbage
        const std::size_t len = 1 + rng.next(64);
        for (std::size_t i = 0; i < len; ++i) {
          b.push_back(static_cast<char>(rng.next(256)));
        }
        break;
      }
    }
  }
  if (rng.next(2) == 0) reseal(b);
  return b;
}

struct NullVisitor final : core::ProfileVisitor {};

}  // namespace

std::vector<std::string> builtin_corpus() {
  return {serialized(ThreadProfile{}), serialized(make_basic()),
          serialized(make_throttled()), serialized(make_strings_heavy()),
          serialized(make_deep())};
}

std::vector<std::string> builtin_corpus_names() {
  return {"empty_v4.dcpf", "basic_v4.dcpf", "throttled_v4.dcpf",
          "strings_v4.dcpf", "deep_v4.dcpf"};
}

FuzzCaseResult run_fuzz_case(std::uint64_t case_seed,
                             const std::vector<std::string>& corpus) {
  FuzzCaseResult result;
  std::vector<std::string>& fails = result.failures;
  if (corpus.empty()) return result;
  Rng rng(case_seed);
  const std::string& base = corpus[rng.next(corpus.size())];
  const std::string bytes = mutate(base, rng);
  // Profiles built from untrusted bytes may carry duplicate sibling keys
  // and wrap-around metric sums (invariants.h).
  CheckOptions untrusted;
  untrusted.strict = false;

  // Reader contract, entry point 1: the strict streaming scan. A case is
  // accepted when one profile spans exactly the mutated bytes.
  bool scan_ok = false;
  try {
    NullVisitor v;
    scan_ok = ThreadProfile::scan(bytes, v) == bytes.size();
  } catch (const std::runtime_error&) {
  } catch (const std::exception& e) {
    fails.push_back(std::string("scan threw non-runtime_error: ") + e.what());
  } catch (...) {
    fails.push_back("scan threw a non-std exception");
  }

  // Entry point 2: the framing check every shard fold starts with. It
  // may accept more than scan (no structural parse) but never less, or
  // the fast reject would drop a valid shard.
  try {
    if (scan_ok && !ThreadProfile::check_framing(bytes).empty()) {
      fails.push_back("check_framing rejected what scan accepted");
    }
  } catch (const std::exception& e) {
    fails.push_back(std::string("check_framing threw: ") + e.what());
  } catch (...) {
    fails.push_back("check_framing threw a non-std exception");
  }

  // Entry point 3: the materializing read. Must agree with scan, and
  // anything it accepts must be structurally sound and serialize stably.
  try {
    const ThreadProfile p = ThreadProfile::read(bytes);
    if (!scan_ok) fails.push_back("read accepted what scan rejected");
    const CheckResult res = check_profile(p, untrusted);
    if (!res.ok()) {
      fails.push_back("read accepted an ill-formed profile: " +
                      res.summary());
    }
  } catch (const std::runtime_error&) {
    if (scan_ok) fails.push_back("read rejected what scan accepted");
  } catch (const std::exception& e) {
    fails.push_back(std::string("read threw non-runtime_error: ") + e.what());
  } catch (...) {
    fails.push_back("read threw a non-std exception");
  }

  // Entry point 4: the salvaging read — never throws, and whatever prefix
  // it keeps must itself be a sound profile.
  core::SalvageResult sr;
  ThreadProfile prefix;
  try {
    prefix = ThreadProfile::read_salvage(bytes, sr);
    if (sr.clean != scan_ok) {
      fails.push_back("salvage clean flag disagrees with scan");
    }
    if (sr.clean && sr.records_dropped != 0) {
      fails.push_back("clean salvage reports dropped records");
    }
    const CheckResult res = check_profile(prefix, untrusted);
    if (!res.ok()) {
      fails.push_back("salvaged profile is ill-formed: " + res.summary());
    }
  } catch (const std::exception& e) {
    fails.push_back(std::string("read_salvage threw: ") + e.what());
  } catch (...) {
    fails.push_back("read_salvage threw a non-std exception");
  }

  // Entry point 5: the streaming merge every shard fold runs, into a
  // non-empty aggregate so string remapping is exercised. A merge that
  // throws must have folded exactly the salvaged prefix (fold_shard's
  // salvage mode relies on it).
  ThreadProfile dst = make_basic();
  try {
    analysis::merge_serialized(dst, bytes);
    if (!scan_ok) {
      fails.push_back("merge_serialized accepted what scan rejected");
    }
    const CheckResult res = check_profile(dst, untrusted);
    if (!res.ok()) {
      fails.push_back("merge of accepted profile is ill-formed: " +
                      res.summary());
    }
  } catch (const std::runtime_error&) {
    if (scan_ok) fails.push_back("merge_serialized rejected what scan accepted");
    ThreadProfile expected = make_basic();
    if (sr.records_kept > 0) analysis::merge_into(expected, prefix);
    if (serialized(dst) != serialized(expected)) {
      fails.push_back(
          "failed merge_serialized differs from merging the salvaged prefix");
    }
  } catch (const std::exception& e) {
    fails.push_back(std::string("merge_serialized threw non-runtime_error: ") +
                    e.what());
  } catch (...) {
    fails.push_back("merge_serialized threw a non-std exception");
  }

  result.accepted = scan_ok;
  return result;
}

FuzzReport run_fuzz(const FuzzOptions& options,
                    const std::vector<std::string>& extra_corpus) {
  std::vector<std::string> corpus = builtin_corpus();
  corpus.insert(corpus.end(), extra_corpus.begin(), extra_corpus.end());

  FuzzReport report;
  for (std::size_t i = 0; i < options.count; ++i) {
    const std::uint64_t case_seed = Rng::mix(options.base_seed, i);
    const FuzzCaseResult r = run_fuzz_case(case_seed, corpus);
    ++report.cases;
    if (r.accepted) {
      ++report.accepted;
    } else {
      ++report.rejected;
    }
    for (const auto& f : r.failures) {
      report.failures.push_back(FuzzFailure{case_seed, f});
      if (options.verbose) {
        std::fprintf(stderr, "fuzz failure (seed %llu): %s\n",
                     static_cast<unsigned long long>(case_seed), f.c_str());
      }
    }
  }
  return report;
}

}  // namespace dcprof::verify
