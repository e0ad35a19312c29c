// Post-mortem profile merging. CCTs of the same storage class merge
// across threads and processes: heap variables coalesce when their
// allocation call paths match (structural CCT merge), static variables
// coalesce by symbol name (string remap). The many-profile merge uses a
// reduction tree, mirroring the paper's MPI-based parallel reduction.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/profile.h"

namespace dcprof::analysis {

/// Merges `src` into `dst` (all four storage-class CCTs).
void merge_into(core::ThreadProfile& dst, const core::ThreadProfile& src);

/// Per-thread totals from *unmerged* profiles — load-imbalance at a
/// glance (the paper's measurement is per-thread before reduction): one
/// profile's rank, tid and per-node metric total.
struct ThreadRow {
  std::int32_t rank = 0;
  std::int32_t tid = 0;
  core::MetricVec metrics;
};

/// Streaming merge: parses the payload of one `.dcpf` image that
/// ThreadProfile::check_framing accepted (core::sealed_payload of the
/// bytes from core::read_file) and merges it into `dst` node-by-node,
/// never materializing the source profile — the memory-bounded fold
/// behind both the Analyzer and the ingestion daemon. Returns the
/// source's ThreadRow. The result is byte-identical to
/// `merge_into(dst, ThreadProfile::read_payload(payload))`.
///
/// Throws std::runtime_error on corrupt input (trailing bytes included).
/// A merge that throws has folded exactly the records parsed before the
/// error: `dst` ends as `merge_into(dst, ThreadProfile::read_salvage(
/// image))` would leave it when that salvage kept at least one record,
/// and untouched when it kept none (the fuzzer checks this). So a
/// failed merge is the salvage-mode fold; any other caller must discard
/// `dst` (see fold_shard).
ThreadRow merge_serialized(core::ThreadProfile& dst,
                           std::string_view payload);

/// Reduces a set of per-thread/per-rank profiles to one aggregate profile
/// via pairwise reduction-tree rounds. Consumes the input.
core::ThreadProfile reduce(std::vector<core::ThreadProfile> profiles);

}  // namespace dcprof::analysis
