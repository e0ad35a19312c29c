#include "core/profile.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

#include "binfmt/bytes.h"
#include "core/checksum.h"

namespace dcprof::core {

using binfmt::ByteReader;
using binfmt::put_str;
using binfmt::put_u32;
using binfmt::put_u64;
using binfmt::put_u8;

namespace {

constexpr std::uint32_t kMagic = 0x64637066;        // "dcpf"
constexpr std::uint32_t kFooterMagic = 0x64637074;  // "dcpt"
/// magic, version, flags, then the sampling period in two slots.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;

constexpr const char* kReRecord =
    "; re-record with a current dcprof_measure";

/// Reads the header words into `period` and applies the version policy:
/// version kProfileFormatVersion, flags 0 and one period in both slots.
/// Returns the failure, or an empty string for a current header; throws
/// only on a short header, which check_framing's size check rules out.
/// Shared by the framing check and the parse, so both give the same
/// message.
std::string header_error(ByteReader& r, std::uint64_t& period) {
  const std::uint32_t magic = r.u32();
  r.require("header");
  if (magic != kMagic) return "bad profile magic";
  const std::uint32_t version = r.u32();
  r.require("header");
  if (version != kProfileFormatVersion) {
    return "unsupported profile version " + std::to_string(version) +
           ": only version " + std::to_string(kProfileFormatVersion) +
           " is read" + kReRecord;
  }
  const std::uint32_t flags = r.u32();
  period = r.u64();
  const std::uint64_t second = r.u64();
  r.require("header");
  if (flags != 0 || second != period) {
    // Older builds raised the period under overload and recorded both.
    return "unsupported profile header (flags " + std::to_string(flags) +
           ", sampling periods " + std::to_string(period) + " and " +
           std::to_string(second) + "): only flags 0 and one period are read" +
           kReRecord;
  }
  return {};
}

void write_cct(std::string& o, const Cct& cct) {
  put_u32(o, static_cast<std::uint32_t>(cct.size()));
  for (const auto& n : cct.nodes()) {
    put_u8(o, static_cast<std::uint8_t>(n.kind));
    put_u64(o, n.sym);
    put_u32(o, n.parent);
    for (auto m : n.metrics.v) put_u64(o, m);
  }
}

void write_patterns(std::string& o, const AccessPatternTable& patterns) {
  put_u32(o, static_cast<std::uint32_t>(patterns.size()));
  for (const auto& [key, p] : patterns.vars()) {
    put_u8(o, key.cls);
    put_u64(o, key.id);
    put_u64(o, p.accesses);
    put_u64(o, p.cold_lines);
    for (std::size_t l = 0; l < kNumMemLevels; ++l) {
      put_u64(o, p.level_channel[l][0]);
      put_u64(o, p.level_channel[l][1]);
    }
    for (auto v : p.reuse) put_u64(o, v);
    for (auto v : p.stride) put_u64(o, v);
  }
}

}  // namespace

const char* to_string(StorageClass c) {
  switch (c) {
    case StorageClass::kNoMem: return "no-memory";
    case StorageClass::kStatic: return "static";
    case StorageClass::kHeap: return "heap";
    case StorageClass::kStack: return "stack";
    case StorageClass::kUnknown: return "unknown";
  }
  return "?";
}

std::uint64_t ThreadProfile::total_samples() const {
  std::uint64_t total = 0;
  for (const auto& c : ccts) total += c.total()[Metric::kSamples];
  return total;
}

std::string ThreadProfile::serialize() const {
  std::string out;
  put_u32(out, kMagic);
  put_u32(out, kProfileFormatVersion);
  put_u32(out, 0);  // flags
  put_u64(out, sampling_period);
  put_u64(out, sampling_period);
  put_u32(out, static_cast<std::uint32_t>(rank));
  put_u32(out, static_cast<std::uint32_t>(tid));
  put_u32(out, static_cast<std::uint32_t>(strings.size()));
  for (std::size_t i = 0; i < strings.size(); ++i) {
    put_str(out, strings.str(i));
  }
  for (const auto& c : ccts) write_cct(out, c);
  write_patterns(out, patterns);
  seal(out, kFooterMagic);
  return out;
}

void ThreadProfile::write(std::ostream& out) const {
  const std::string bytes = serialize();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

namespace {

/// The record walk behind scan and read_salvage: the header, then every
/// record up to the end of the pattern table. It consumes no footer.
void scan_profile(ByteReader& r, ProfileVisitor& visitor) {
  std::uint64_t period = 0;
  if (const std::string why = header_error(r, period); !why.empty()) {
    throw std::runtime_error(why);
  }
  const auto rank = static_cast<std::int32_t>(r.u32());
  const auto tid = static_cast<std::int32_t>(r.u32());
  const std::uint32_t nstrings = r.u32();
  r.require("string count");
  visitor.on_header(rank, tid, period);
  visitor.on_string_table(nstrings);
  std::string s;
  // No legitimate writer emits the same string twice (tables are built by
  // interning); a crafted duplicate would collapse under the reader's
  // intern and leave later static-variable name ids dangling.
  std::unordered_set<std::string> seen_strings;
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    r.str(s);
    if (!seen_strings.insert(s).second) {
      throw std::runtime_error("corrupt profile: duplicate string-table entry");
    }
    visitor.on_string(s);
  }
  for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
    const std::uint32_t count = r.u32();
    r.require("cct node count");
    if (count == 0) {
      throw std::runtime_error("corrupt profile: CCT without a root node");
    }
    visitor.on_cct_begin(c, count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint8_t kind_raw = r.u8();
      const std::uint64_t sym = r.u64();
      const std::uint32_t parent = r.u32();
      MetricVec m;
      for (auto& x : m.v) x = r.u64();
      r.require("cct node");
      if (kind_raw > static_cast<std::uint8_t>(NodeKind::kVarStatic)) {
        throw std::runtime_error("corrupt profile: unknown CCT node kind");
      }
      const auto kind = static_cast<NodeKind>(kind_raw);
      if (i == 0) {
        if (kind != NodeKind::kRoot) {
          throw std::runtime_error(
              "corrupt profile: CCT must start with a root node");
        }
      } else if (kind == NodeKind::kRoot) {
        // A non-zero root-kind node would collide with the child index's
        // empty-slot encoding ((parent << 8) | kind == 0).
        throw std::runtime_error(
            "corrupt profile: root-kind node below the root");
      } else if (parent >= i) {
        throw std::runtime_error(
            "corrupt profile: CCT node precedes its parent");
      }
      if (kind == NodeKind::kVarStatic && sym >= nstrings) {
        throw std::runtime_error(
            "corrupt profile: static-variable name id out of range");
      }
      visitor.on_node(c, kind, sym, parent, m);
    }
  }
  const std::uint32_t nvars = r.u32();
  r.require("pattern table count");
  visitor.on_patterns(nvars);
  bool have_prev = false;
  VarPatternKey prev;
  for (std::uint32_t i = 0; i < nvars; ++i) {
    const std::uint8_t cls = r.u8();
    const std::uint64_t id = r.u64();
    VarPattern p;
    p.accesses = r.u64();
    p.cold_lines = r.u64();
    for (std::size_t l = 0; l < kNumMemLevels; ++l) {
      p.level_channel[l][0] = r.u64();
      p.level_channel[l][1] = r.u64();
    }
    for (auto& v : p.reuse) v = r.u64();
    for (auto& v : p.stride) v = r.u64();
    r.require("pattern entry");
    if (cls >= kNumStorageClasses ||
        cls == static_cast<std::uint8_t>(StorageClass::kNoMem)) {
      throw std::runtime_error(
          "corrupt profile: pattern entry with bad storage class");
    }
    const bool names_string =
        cls == static_cast<std::uint8_t>(StorageClass::kStatic) ||
        cls == static_cast<std::uint8_t>(StorageClass::kStack);
    if (names_string && id >= nstrings) {
      throw std::runtime_error(
          "corrupt profile: pattern variable name id out of range");
    }
    // Writers emit the table in strictly increasing key order; anything
    // else would not round-trip byte-identically.
    const VarPatternKey key{cls, id};
    if (have_prev && !(prev < key)) {
      throw std::runtime_error(
          "corrupt profile: pattern entries out of order");
    }
    prev = key;
    have_prev = true;
    visitor.on_pattern(cls, id, p);
  }
}

}  // namespace

void ThreadProfile::scan(std::string_view payload, ProfileVisitor& visitor) {
  ByteReader r(payload, "profile");
  scan_profile(r, visitor);
  r.require_end();
}

namespace {

/// ProfileVisitor that materializes a full ThreadProfile (the classic
/// deserializer, now layered on the streaming scan).
class ProfileBuilder : public ProfileVisitor {
 public:
  void on_header(std::int32_t rank, std::int32_t tid,
                 std::uint64_t sampling_period) override {
    profile.rank = rank;
    profile.tid = tid;
    profile.sampling_period = sampling_period;
  }
  void on_string(const std::string& s) override { profile.strings.intern(s); }
  void on_cct_begin(std::size_t class_index,
                    std::uint32_t node_count) override {
    flush();
    class_ = class_index;
    pending_ = true;
    // Cap the reservation: node_count was validated only as nonzero, and
    // a scan failure later should not be preceded by a huge allocation.
    nodes_.reserve(std::min<std::uint32_t>(node_count, 1u << 20));
  }
  void on_node(std::size_t, NodeKind kind, std::uint64_t sym,
               std::uint32_t parent, const MetricVec& metrics) override {
    nodes_.push_back(Cct::Node{kind, sym, parent, metrics});
  }
  void on_pattern(std::uint8_t cls, std::uint64_t id,
                  const VarPattern& p) override {
    profile.patterns.add(cls, id, p);
  }
  void flush() {
    if (!pending_) return;
    if (!nodes_.empty()) {
      profile.ccts[class_].load_nodes(std::move(nodes_));
    }
    nodes_ = {};
    pending_ = false;
  }

  ThreadProfile profile;

 private:
  std::vector<Cct::Node> nodes_;
  std::size_t class_ = 0;
  bool pending_ = false;
};

/// ProfileBuilder that additionally counts declared vs delivered records,
/// so a recovery-mode read can report exactly what it kept and lost.
class SalvagingBuilder final : public ProfileBuilder {
 public:
  void on_string_table(std::uint32_t count) override { declared_ += count; }
  void on_string(const std::string& s) override {
    ProfileBuilder::on_string(s);
    ++kept_;
  }
  void on_cct_begin(std::size_t class_index,
                    std::uint32_t node_count) override {
    ProfileBuilder::on_cct_begin(class_index, node_count);
    declared_ += node_count;
  }
  void on_node(std::size_t c, NodeKind kind, std::uint64_t sym,
               std::uint32_t parent, const MetricVec& metrics) override {
    ProfileBuilder::on_node(c, kind, sym, parent, metrics);
    ++kept_;
  }
  void on_patterns(std::uint32_t count) override { declared_ += count; }
  void on_pattern(std::uint8_t cls, std::uint64_t id,
                  const VarPattern& p) override {
    ProfileBuilder::on_pattern(cls, id, p);
    ++kept_;
  }

  std::size_t kept() const { return kept_; }
  /// Records whose declaration was read but whose bytes never arrived
  /// (sections not yet declared at the failure point are unknowable and
  /// not counted).
  std::size_t dropped() const { return declared_ - std::min(declared_, kept_); }

 private:
  std::size_t declared_ = 0;
  std::size_t kept_ = 0;
};

}  // namespace

std::string ThreadProfile::check_framing(std::string_view image) {
  if (image.size() < kHeaderBytes + kSealBytes) return "truncated profile";
  ByteReader header(image, "profile");
  std::uint64_t period = 0;
  // The header rule precedes the footer check, so a well-framed shard
  // of a foreign version or header is rejected up front with the
  // remedy, never part-way through a merge.
  if (std::string why = header_error(header, period); !why.empty()) {
    return why;
  }
  if (const std::string why = check_seal(image, kFooterMagic); !why.empty()) {
    return "corrupt profile: " + why;
  }
  return {};
}

ThreadProfile ThreadProfile::read(std::string_view image) {
  if (const std::string why = check_framing(image); !why.empty()) {
    throw std::runtime_error(why);
  }
  return read_payload(sealed_payload(image));
}

ThreadProfile ThreadProfile::read_payload(std::string_view payload) {
  ProfileBuilder builder;
  scan(payload, builder);
  builder.flush();
  return std::move(builder.profile);
}

ThreadProfile ThreadProfile::read_salvage(std::string_view image,
                                          SalvageResult& out) {
  SalvagingBuilder builder;
  out = SalvageResult{};
  out.error = check_framing(image);
  try {
    if (out.error.empty()) {
      scan(sealed_payload(image), builder);
    } else {
      // The seal failed, so no byte is trusted: walk the records of the
      // whole image to the first structural failure (most often the
      // cut) only to count what survived. The seal's error is reported.
      ByteReader r(image, "profile");
      scan_profile(r, builder);
    }
  } catch (const std::exception& e) {
    if (out.error.empty()) out.error = e.what();
  }
  out.clean = out.error.empty();
  // Keep the valid prefix of the class that was being parsed when the
  // error (if any) hit: parents precede children, so any node prefix is
  // a well-formed tree.
  builder.flush();
  out.records_kept = builder.kept();
  out.records_dropped = builder.dropped();
  return std::move(builder.profile);
}

}  // namespace dcprof::core
