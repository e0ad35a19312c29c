#include "core/profile.h"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "core/checksum.h"

namespace dcprof::core {

namespace {

constexpr std::uint32_t kMagic = 0x64637066;        // "dcpf"
constexpr std::uint32_t kFooterMagic = 0x64637074;  // "dcpt"

void put_u8(std::ostream& o, std::uint8_t v) {
  o.put(static_cast<char>(v));
}
void put_u32(std::ostream& o, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) o.put(static_cast<char>((v >> (8 * i)) & 0xff));
}
void put_u64(std::ostream& o, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) o.put(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Decodes straight out of an in-memory byte image (an mmap'd file) with
/// no stream machinery and no intermediate buffer. Payload reads run the
/// CRC32C and byte count the footer is checked against; footer reads are
/// raw (the footer checksums the bytes before it, not itself). A short
/// read sets a sticky fail flag, consumes nothing, and yields zeros, so
/// `require` throws "truncated profile" at the first record that did not
/// fully arrive.
class ViewReader {
 public:
  explicit ViewReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    const char* p = take(1);
    return p ? static_cast<std::uint8_t>(static_cast<unsigned char>(*p)) : 0;
  }
  std::uint32_t u32() { return le<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return le<std::uint64_t>(take(8)); }
  void read(char* dst, std::size_t n) {
    const char* p = take(n);
    if (p) std::memcpy(dst, p, n);
  }

  void require(const char* what) const {
    if (fail_) {
      throw std::runtime_error(std::string("truncated profile: ") + what);
    }
  }

  std::uint32_t raw_u32() { return le<std::uint32_t>(raw_take(4)); }
  std::uint64_t raw_u64() { return le<std::uint64_t>(raw_take(8)); }
  bool raw_ok() const { return !fail_; }

  std::uint32_t crc() const { return crc_.value(); }
  std::uint64_t count() const { return count_; }
  std::size_t offset() const { return off_; }

 private:
  template <class T>
  static T le(const char* p) {
    T v = 0;
    if (!p) return v;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    return v;
  }
  /// Consumes `n` payload bytes (hashed into the running CRC), or sets
  /// the fail flag and consumes nothing.
  const char* take(std::size_t n) {
    const char* p = raw_take(n);
    if (p) {
      crc_.update(p, n);
      count_ += n;
    }
    return p;
  }
  const char* raw_take(std::size_t n) {
    if (fail_ || bytes_.size() - off_ < n) {
      fail_ = true;
      return nullptr;
    }
    const char* p = bytes_.data() + off_;
    off_ += n;
    return p;
  }

  std::string_view bytes_;
  std::size_t off_ = 0;
  bool fail_ = false;
  Crc32c crc_;
  std::uint64_t count_ = 0;
};

/// The one message for a version word this build does not read, shared
/// by the structural scan and the framing check.
std::string unsupported_version(std::uint32_t version) {
  return "unsupported profile version " + std::to_string(version) +
         ": only version " + std::to_string(kProfileFormatVersion) +
         " is read; re-record with a current dcprof_measure";
}

/// Caps for length fields read from disk: a corrupt file must fail with
/// a clear error instead of a multi-gigabyte allocation attempt.
constexpr std::uint32_t kMaxStringBytes = 1u << 24;

void write_cct(std::ostream& o, const Cct& cct) {
  put_u32(o, static_cast<std::uint32_t>(cct.size()));
  for (const auto& n : cct.nodes()) {
    put_u8(o, static_cast<std::uint8_t>(n.kind));
    put_u64(o, n.sym);
    put_u32(o, n.parent);
    for (auto m : n.metrics.v) put_u64(o, m);
  }
}

void write_patterns(std::ostream& o, const AccessPatternTable& patterns) {
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

void ThreadProfile::write(std::ostream& out) const {
  // Header + body are serialized to a buffer first: the footer carries a
  // CRC32C over those exact bytes. Write-out is cold (once per thread per
  // run), so the extra copy never touches the sample hot path.
  std::ostringstream payload;
  put_u32(payload, kMagic);
  put_u32(payload, kProfileFormatVersion);
  put_u32(payload, throttled() ? kProfileFlagThrottled : 0u);
  put_u64(payload, sampling_period);
  put_u64(payload, effective_period);
  put_u32(payload, static_cast<std::uint32_t>(rank));
  put_u32(payload, static_cast<std::uint32_t>(tid));
  put_u32(payload, static_cast<std::uint32_t>(strings.size()));
  for (std::size_t i = 0; i < strings.size(); ++i) {
    const std::string& s = strings.str(i);
    put_u32(payload, static_cast<std::uint32_t>(s.size()));
    payload.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  for (const auto& c : ccts) write_cct(payload, c);
  write_patterns(payload, patterns);

  const std::string bytes = std::move(payload).str();
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  put_u32(out, kFooterMagic);
  put_u64(out, static_cast<std::uint64_t>(bytes.size()));
  put_u32(out, crc32c(bytes));
}

namespace {

/// The format walk behind scan, read and read_salvage.
void scan_profile(ViewReader& r, ProfileVisitor& visitor) {
  const std::uint32_t magic = r.u32();
  r.require("header");
  if (magic != kMagic) throw std::runtime_error("bad profile magic");
  const std::uint32_t version = r.u32();
  r.require("header");
  if (version != kProfileFormatVersion) {
    throw std::runtime_error(unsupported_version(version));
  }
  ProfileFraming framing;
  framing.flags = r.u32();
  framing.sampling_period = r.u64();
  framing.effective_period = r.u64();
  r.require("header flags");
  const auto rank = static_cast<std::int32_t>(r.u32());
  const auto tid = static_cast<std::int32_t>(r.u32());
  const std::uint32_t nstrings = r.u32();
  r.require("string count");
  visitor.on_framing(framing);
  visitor.on_header(rank, tid);
  visitor.on_string_table(nstrings);
  std::string s;
  // No legitimate writer emits the same string twice (tables are built by
  // interning); a crafted duplicate would collapse under the reader's
  // intern and leave later static-variable name ids dangling.
  std::unordered_set<std::string> seen_strings;
  for (std::uint32_t i = 0; i < nstrings; ++i) {
    const std::uint32_t len = r.u32();
    r.require("string length");
    if (len > kMaxStringBytes) {
      throw std::runtime_error("corrupt profile: implausible string length");
    }
    s.assign(len, '\0');
    r.read(s.data(), len);
    r.require("string data");
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
  // Footer: not part of the checksummed payload, read raw.
  const std::uint32_t footer_magic = r.raw_u32();
  const std::uint64_t payload_bytes = r.raw_u64();
  const std::uint32_t crc = r.raw_u32();
  if (!r.raw_ok()) throw std::runtime_error("truncated profile: footer");
  if (footer_magic != kFooterMagic) {
    throw std::runtime_error("corrupt profile: bad footer magic");
  }
  if (payload_bytes != r.count()) {
    throw std::runtime_error("corrupt profile: payload length mismatch");
  }
  if (crc != r.crc()) {
    throw std::runtime_error("corrupt profile: checksum mismatch");
  }
}

}  // namespace

std::size_t ThreadProfile::scan(std::string_view bytes,
                                ProfileVisitor& visitor) {
  ViewReader r(bytes);
  scan_profile(r, visitor);
  return r.offset();
}

namespace {

/// ProfileVisitor that materializes a full ThreadProfile (the classic
/// deserializer, now layered on the streaming scan).
class ProfileBuilder : public ProfileVisitor {
 public:
  void on_framing(const ProfileFraming& f) override {
    profile.sampling_period = f.sampling_period;
    profile.effective_period = f.effective_period;
  }
  void on_header(std::int32_t rank, std::int32_t tid) override {
    profile.rank = rank;
    profile.tid = tid;
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

ThreadProfile ThreadProfile::read(std::string_view bytes) {
  ProfileBuilder builder;
  if (scan(bytes, builder) != bytes.size()) {
    throw std::runtime_error("trailing bytes after profile data");
  }
  builder.flush();
  return std::move(builder.profile);
}

std::string ThreadProfile::check_framing(std::string_view bytes) {
  constexpr std::size_t kFooterSize = 4 + 8 + 4;  // magic, size, crc
  const auto u32_at = [&](std::size_t off) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
    }
    return v;
  };
  const auto u64_at = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | static_cast<unsigned char>(bytes[off + i]);
    }
    return v;
  };
  if (bytes.size() < kFooterSize + 8) return "truncated profile";
  if (u32_at(0) != kMagic) return "bad profile magic";
  // The version word precedes the footer check, so a well-framed shard
  // of a foreign version is rejected up front with the remedy, never
  // part-way through a merge.
  if (const std::uint32_t version = u32_at(4);
      version != kProfileFormatVersion) {
    return unsupported_version(version);
  }
  const std::size_t footer = bytes.size() - kFooterSize;
  if (u32_at(footer) != kFooterMagic) return "bad footer magic";
  if (u64_at(footer + 4) != footer) return "payload size mismatch";
  if (u32_at(footer + 12) != crc32c(bytes.substr(0, footer))) {
    return "checksum mismatch";
  }
  return {};
}

ThreadProfile ThreadProfile::read_salvage(std::string_view bytes,
                                          SalvageResult& out) {
  SalvagingBuilder builder;
  out = SalvageResult{};
  try {
    if (scan(bytes, builder) != bytes.size()) {
      throw std::runtime_error("trailing bytes after profile data");
    }
  } catch (const std::exception& e) {
    out.clean = false;
    out.error = e.what();
  }
  // Keep the valid prefix of the class that was being parsed when the
  // error (if any) hit: parents precede children, so any node prefix is
  // a well-formed tree.
  builder.flush();
  out.records_kept = builder.kept();
  out.records_dropped = builder.dropped();
  return std::move(builder.profile);
}

std::uint64_t ThreadProfile::serialized_bytes() const {
  std::ostringstream os;
  write(os);
  return static_cast<std::uint64_t>(os.str().size());
}

}  // namespace dcprof::core
