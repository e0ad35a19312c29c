// A per-thread data-centric profile: one CCT per storage class, plus the
// compact binary serialization used for post-mortem analysis.
//
// On-disk `.dcpf` framing (format version 4):
//
//   header   magic, version, flags (0), the sampling period twice
//   body     rank, tid, string table, one CCT per storage class,
//            access-pattern table (v4: per-variable memory-level/channel
//            matrix + reuse-distance and stride histograms)
//   footer   footer magic, payload byte count, CRC32C over header+body
//
// The footer is what makes the measurement->analysis handoff crash-safe:
// a torn or bit-flipped file fails the checksum instead of silently
// poisoning the merged profile. Every reader works on an in-memory byte
// image (a file read whole by core::read_file, or a string the caller
// already holds), checks it once with ThreadProfile::check_framing, then
// parses only its payload, to the last byte. Only version 4 with flags 0
// and one period in both slots is read: any other version word (v2's
// pre-footer layout, v3's 8-slot nodes, a future v5) or header (the
// raised-period shards of older builds) is rejected with an error naming
// it and the remedy, re-recording.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "core/cct.h"
#include "core/patterns.h"
#include "core/string_table.h"

namespace dcprof::core {

/// The storage classes the paper separates profiles into (static, heap,
/// unknown), plus the CCT for samples that touch no memory and — the
/// paper's future-work extension — a class for stack-allocated data.
enum class StorageClass : std::uint8_t {
  kNoMem,
  kStatic,
  kHeap,
  kStack,
  kUnknown,
};

inline constexpr std::size_t kNumStorageClasses = 5;

const char* to_string(StorageClass c);

/// The `.dcpf` format version every writer emits and every reader accepts.
inline constexpr std::uint32_t kProfileFormatVersion = 4;

/// Callbacks for ThreadProfile::scan — a pull-free streaming parse of the
/// serialized profile format. Events arrive in on-disk order: header,
/// the string-table declaration and every entry, then for each storage
/// class a cct-begin followed by its nodes in id order (parents before
/// children; node 0 is the root). Lets consumers (validation, streaming
/// merge) process a profile without materializing it.
class ProfileVisitor {
 public:
  virtual ~ProfileVisitor() = default;
  virtual void on_header(std::int32_t /*rank*/, std::int32_t /*tid*/,
                         std::uint64_t /*sampling_period*/) {}
  virtual void on_string_table(std::uint32_t /*count*/) {}
  virtual void on_string(const std::string& /*s*/) {}
  virtual void on_cct_begin(std::size_t /*class_index*/,
                            std::uint32_t /*node_count*/) {}
  virtual void on_node(std::size_t /*class_index*/, NodeKind /*kind*/,
                       std::uint64_t /*sym*/, std::uint32_t /*parent*/,
                       const MetricVec& /*metrics*/) {}
  virtual void on_patterns(std::uint32_t /*var_count*/) {}
  virtual void on_pattern(std::uint8_t /*cls*/, std::uint64_t /*id*/,
                          const VarPattern& /*pattern*/) {}
};

/// Outcome of a recovery-mode (salvaging) read: how much of the file's
/// record stream survived. A "record" is one string-table entry, one
/// CCT node, or one access-pattern entry.
struct SalvageResult {
  std::size_t records_kept = 0;     ///< records parsed and retained
  std::size_t records_dropped = 0;  ///< declared records lost to the error
  bool clean = true;                ///< file was fully intact (no error)
  std::string error;                ///< first failure, when !clean
};

struct ThreadProfile {
  std::int32_t rank = 0;
  std::int32_t tid = 0;
  /// Configured PMU sampling period, written into both period slots of
  /// the file header (0 = unknown: synthetic profiles).
  std::uint64_t sampling_period = 0;
  StringTable strings;
  Cct ccts[kNumStorageClasses];
  /// Per-variable memory-level/channel and reuse/stride analytics,
  /// recorded at attribution time (v4 body section).
  AccessPatternTable patterns;

  Cct& cct(StorageClass c) { return ccts[static_cast<std::size_t>(c)]; }
  const Cct& cct(StorageClass c) const {
    return ccts[static_cast<std::size_t>(c)];
  }

  /// Sum of kSamples over every CCT.
  std::uint64_t total_samples() const;

  /// The `.dcpf` bytes: header, body and the sealing footer, built in
  /// one string. Its size is the paper's space overhead.
  std::string serialize() const;
  /// Writes serialize() to `out`.
  void write(std::ostream& out) const;

  /// The one integrity check of a `.dcpf` image, run once before any
  /// parse: its size, the header's magic and version, the header rule
  /// (flags 0, one period in both slots), then the footer and one
  /// CRC32C pass over the payload (core::check_seal). No structural
  /// parse. Returns an empty string when intact, else the failure
  /// reason; a foreign version or header gets the version policy's
  /// message with the re-record remedy. A clean result rules out every
  /// torn or bit-flipped file (the failure modes atomic-rename
  /// publication leaves possible); the records themselves are only
  /// validated by parsing the payload (core::sealed_payload).
  static std::string check_framing(std::string_view image);

  /// check_framing, then read_payload of the image's payload. Throws
  /// std::runtime_error with the first failure of either.
  static ThreadProfile read(std::string_view image);

  /// Builds the profile from the payload of an image check_framing
  /// accepted. Throws std::runtime_error on any format error, trailing
  /// bytes included.
  static ThreadProfile read_payload(std::string_view payload);

  /// Streaming parse of a checked payload: feeds `visitor` without
  /// building a ThreadProfile, decoding records straight out of
  /// `payload`. Validates the format as it goes (header words, node
  /// ordering, string references, pattern-key ordering, truncation) and
  /// that the pattern table ends exactly at the payload's last byte;
  /// throws std::runtime_error on the first inconsistency, and events
  /// already delivered stay delivered. `read_payload` and the
  /// analyzer's streaming merge are built on it.
  static void scan(std::string_view payload, ProfileVisitor& visitor);

  /// Recovery-mode read: never throws on bad input. Runs check_framing;
  /// an intact image is parsed like `read`, and a structural error keeps
  /// the valid record prefix. An image whose seal failed is the one
  /// parsed unchecked: its header is checked, its records are walked up
  /// to the first structural failure, and the seal's error is reported.
  /// `out` gets kept/dropped record counts. A bad magic, version or
  /// header (not a readable profile at all) keeps zero records.
  static ThreadProfile read_salvage(std::string_view image,
                                    SalvageResult& out);
};

}  // namespace dcprof::core
