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

/// What the thread and throttle views report per source profile: its
/// header fields and its per-node metric total.
struct ProfileSummary {
  std::int32_t rank = 0;
  std::int32_t tid = 0;
  std::uint64_t sampling_period = 0;
  std::uint64_t effective_period = 0;
  core::MetricVec total;  ///< sum of every node's metrics
};

/// Streaming merge: parses one serialized profile spanning exactly
/// `bytes` (an mmap'd `.dcpf` via core::MappedFile) and merges it into
/// `dst` node-by-node, never materializing the source profile — the
/// memory-bounded fold behind both the Analyzer and the ingestion
/// daemon. The result is byte-identical to
/// `merge_into(dst, ThreadProfile::read(bytes))`.
///
/// Throws std::runtime_error on corrupt input (trailing bytes included).
/// A merge that throws has folded exactly the records parsed before the
/// error: `dst` ends as `merge_into(dst, ThreadProfile::read_salvage(
/// bytes))` would leave it when that salvage kept at least one record,
/// and untouched when it kept none (the fuzzer checks this). So a
/// failed merge is the salvage-mode fold; any other caller must discard
/// `dst` (see fold_shard).
ProfileSummary merge_serialized(core::ThreadProfile& dst,
                                std::string_view bytes);

/// Reduces a set of per-thread/per-rank profiles to one aggregate profile
/// via pairwise reduction-tree rounds. Consumes the input.
core::ThreadProfile reduce(std::vector<core::ThreadProfile> profiles);

/// The same reduction tree with the pairwise merges of each round
/// executed concurrently on `workers` host threads — the analog of the
/// paper's MPI-parallelized post-mortem merge. Merges within a round are
/// independent, so the result is identical to `reduce`.
core::ThreadProfile reduce_parallel(
    std::vector<core::ThreadProfile> profiles, int workers);

}  // namespace dcprof::analysis
