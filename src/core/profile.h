// A per-thread data-centric profile: one CCT per storage class, plus the
// compact binary serialization used for post-mortem analysis.
//
// On-disk `.dcpf` framing (format version 4):
//
//   header   magic, version, flags, sampling_period, effective_period
//   body     rank, tid, string table, one CCT per storage class,
//            access-pattern table (v4: per-variable memory-level/channel
//            matrix + reuse-distance and stride histograms)
//   footer   footer magic, payload byte count, CRC32C over header+body
//
// The footer is what makes the measurement->analysis handoff crash-safe:
// a torn or bit-flipped file fails the checksum instead of silently
// poisoning the merged profile. Every reader works on an in-memory byte
// image (an mmap'd file via core::MappedFile, or a string the caller
// already holds). Only version 4 is read: any other version word
// (v2's pre-footer layout, v3's 8-slot nodes, a future v5) is rejected
// with an error naming the version and the remedy, re-recording — see
// ThreadProfile::scan and ThreadProfile::check_framing.
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

/// Header flag bits.
enum ProfileFlags : std::uint32_t {
  /// The sampling period was raised mid-run because the sample handler
  /// fell behind its latency budget; effective_period records the final
  /// period so the analyzer can rescale sample-count-derived metrics.
  kProfileFlagThrottled = 1u << 0,
};

/// The framing fields of one serialized profile's header. Periods are 0
/// when unknown (synthetic profiles).
struct ProfileFraming {
  std::uint32_t flags = 0;
  std::uint64_t sampling_period = 0;   ///< configured PMU period
  std::uint64_t effective_period = 0;  ///< period after any throttling
};

/// Callbacks for ThreadProfile::scan — a pull-free streaming parse of the
/// serialized profile format. Events arrive in on-disk order: framing,
/// header, the string-table declaration and every entry, then for each
/// storage class a cct-begin followed by its nodes in id order (parents
/// before children; node 0 is the root). Lets consumers (validation,
/// streaming merge) process a profile without materializing it.
class ProfileVisitor {
 public:
  virtual ~ProfileVisitor() = default;
  virtual void on_framing(const ProfileFraming& /*framing*/) {}
  virtual void on_header(std::int32_t /*rank*/, std::int32_t /*tid*/) {}
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
  /// Configured / post-throttling PMU sampling period, written into the
  /// file header (0 = unknown; see ProfileFraming).
  std::uint64_t sampling_period = 0;
  std::uint64_t effective_period = 0;
  StringTable strings;
  Cct ccts[kNumStorageClasses];
  /// Per-variable memory-level/channel and reuse/stride analytics,
  /// recorded at attribution time (v4 body section).
  AccessPatternTable patterns;

  Cct& cct(StorageClass c) { return ccts[static_cast<std::size_t>(c)]; }
  const Cct& cct(StorageClass c) const {
    return ccts[static_cast<std::size_t>(c)];
  }

  bool throttled() const {
    return effective_period != 0 && sampling_period != 0 &&
           effective_period != sampling_period;
  }

  /// Sum of kSamples over every CCT.
  std::uint64_t total_samples() const;

  void write(std::ostream& out) const;
  /// Deserializes a profile that must span exactly `bytes` (an mmap'd
  /// `.dcpf` via MappedFile, or a checkpoint-embedded copy); trailing
  /// bytes are rejected. Throws std::runtime_error on any format error.
  static ThreadProfile read(std::string_view bytes);

  /// Cheap integrity check of one serialized profile spanning exactly
  /// `bytes`: header magic and version, footer framing, and the CRC32C
  /// over the payload — a single checksum pass, no structural parse.
  /// Returns an empty string when intact, else the failure reason (the
  /// same "unsupported profile version N" text as `scan` for a foreign
  /// version). A clean result rules out every torn or bit-flipped file
  /// (the failure modes atomic-rename publication leaves possible);
  /// structural validity of the records themselves is only established
  /// by scan/read. Anything `read` accepts passes this check.
  static std::string check_framing(std::string_view bytes);

  /// Streaming parse: walks one serialized profile and feeds `visitor`
  /// without building a ThreadProfile. Record payloads are decoded
  /// straight out of `bytes` (zero-copy over an mmap'd file). Validates
  /// the format as it goes (magic/version, truncation, node ordering,
  /// string references, pattern-key ordering, and the footer CRC32C)
  /// and throws std::runtime_error on the first inconsistency; events
  /// already delivered stay delivered. Any version other than
  /// kProfileFormatVersion is rejected with an error naming the version
  /// and the remedy. Returns the number of bytes one profile occupied,
  /// so callers can reject trailing garbage
  /// (`scan(bytes, v) != bytes.size()`). `read`, `read_salvage` and the
  /// analyzer's streaming merge are all built on this.
  static std::size_t scan(std::string_view bytes, ProfileVisitor& visitor);

  /// Recovery-mode read: like `read`, but on a framing/truncation/
  /// checksum failure (or trailing bytes) it returns the profile built
  /// from the valid record prefix instead of throwing, reporting
  /// kept/dropped record counts in `out`. Only a bad magic or version
  /// (not a readable profile at all) yields an empty profile with zero
  /// records kept.
  static ThreadProfile read_salvage(std::string_view bytes,
                                    SalvageResult& out);

  /// Size of the serialized form, in bytes (the paper's space overhead).
  std::uint64_t serialized_bytes() const;
};

}  // namespace dcprof::core
