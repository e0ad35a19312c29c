#include "analysis/merge.h"

#include <atomic>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace dcprof::analysis {

using core::Cct;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

void merge_into(ThreadProfile& dst, const ThreadProfile& src) {
  // Static-variable dummy nodes carry profile-local string ids; remap
  // through dst's table so same-named variables coalesce.
  const auto remap = [&](NodeKind kind, std::uint64_t sym) -> std::uint64_t {
    if (kind == NodeKind::kVarStatic) {
      return dst.strings.intern(src.strings.str(sym));
    }
    return sym;
  };
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    dst.ccts[c].merge(src.ccts[c], remap);
  }
  // Pattern tables fold after the CCTs (the serialized section order),
  // name-remapped the same way so same-named variables coalesce.
  dst.patterns.merge_from(
      src.patterns, [&](std::uint8_t cls, std::uint64_t id) -> std::uint64_t {
        if (cls == static_cast<std::uint8_t>(StorageClass::kStatic) ||
            cls == static_cast<std::uint8_t>(StorageClass::kStack)) {
          return dst.strings.intern(src.strings.str(id));
        }
        return id;
      });
  if (dst.rank != src.rank) dst.rank = -1;  // aggregate across ranks
  dst.tid = -1;
}

namespace {

/// Replays the exact operation sequence of merge_into(dst, read(bytes))
/// — same child() insert order, same string-intern order, same rank/tid
/// aggregation — straight off the serialized bytes.
class StreamMerger final : public core::ProfileVisitor {
 public:
  explicit StreamMerger(ThreadProfile& dst) : dst_(dst) {}

  void on_framing(const core::ProfileFraming& f) override {
    summary_.sampling_period = f.sampling_period;
    summary_.effective_period = f.effective_period;
  }
  void on_header(std::int32_t rank, std::int32_t tid) override {
    summary_.rank = rank;
    summary_.tid = tid;
  }
  void on_string(const std::string& s) override {
    aggregate_ids();
    strings_.push_back(s);
  }
  void on_cct_begin(std::size_t class_index, std::uint32_t) override {
    class_ = class_index;
    remap_.clear();
  }
  void on_node(std::size_t, NodeKind kind, std::uint64_t sym,
               std::uint32_t parent, const core::MetricVec& m) override {
    Cct& cct = dst_.ccts[class_];
    summary_.total += m;
    if (remap_.empty()) {  // the source CCT's root
      aggregate_ids();
      remap_.push_back(Cct::kRootId);
      cct.add_metrics(Cct::kRootId, m);
      return;
    }
    if (kind == NodeKind::kVarStatic) {
      sym = dst_.strings.intern(strings_[sym]);
    }
    const Cct::NodeId mine = cct.child(remap_[parent], kind, sym);
    remap_.push_back(mine);
    cct.add_metrics(mine, m);
  }
  void on_pattern(std::uint8_t cls, std::uint64_t id,
                  const core::VarPattern& p) override {
    if (cls == static_cast<std::uint8_t>(StorageClass::kStatic) ||
        cls == static_cast<std::uint8_t>(StorageClass::kStack)) {
      id = dst_.strings.intern(strings_[id]);
    }
    dst_.patterns.add(cls, id, p);
  }

  const ProfileSummary& summary() const { return summary_; }

 private:
  /// merge_into's rank/tid aggregation. Applied with the records (every
  /// string and every CCT root; idempotent) rather than with the header,
  /// so a merge that fails before its first record leaves `dst` exactly
  /// as untouched as a salvage that kept nothing.
  void aggregate_ids() {
    if (dst_.rank != summary_.rank) dst_.rank = -1;
    dst_.tid = -1;
  }

  ThreadProfile& dst_;
  std::vector<std::string> strings_;
  std::vector<Cct::NodeId> remap_;
  std::size_t class_ = 0;
  ProfileSummary summary_;
};

}  // namespace

ProfileSummary merge_serialized(ThreadProfile& dst, std::string_view bytes) {
  StreamMerger merger(dst);
  if (ThreadProfile::scan(bytes, merger) != bytes.size()) {
    throw std::runtime_error("trailing bytes after profile data");
  }
  return merger.summary();
}

ThreadProfile reduce(std::vector<ThreadProfile> profiles) {
  if (profiles.empty()) {
    throw std::invalid_argument("reduce: no profiles");
  }
  // Pairwise reduction tree: round k merges neighbours 2^k apart.
  for (std::size_t stride = 1; stride < profiles.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < profiles.size(); i += 2 * stride) {
      merge_into(profiles[i], profiles[i + stride]);
    }
  }
  return std::move(profiles.front());
}

ThreadProfile reduce_parallel(std::vector<ThreadProfile> profiles,
                              int workers) {
  if (profiles.empty()) {
    throw std::invalid_argument("reduce_parallel: no profiles");
  }
  if (workers < 1) workers = 1;
  for (std::size_t stride = 1; stride < profiles.size(); stride *= 2) {
    // The merges of one round touch disjoint pairs: run them on a
    // worker pool, exactly as ranks merge concurrently under MPI.
    std::vector<std::size_t> pairs;
    for (std::size_t i = 0; i + stride < profiles.size(); i += 2 * stride) {
      pairs.push_back(i);
    }
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
      for (std::size_t p = next.fetch_add(1); p < pairs.size();
           p = next.fetch_add(1)) {
        merge_into(profiles[pairs[p]], profiles[pairs[p] + stride]);
      }
    };
    const int n = std::min<int>(workers, static_cast<int>(pairs.size()));
    if (n <= 1) {
      drain();
    } else {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(n));
      for (int w = 0; w < n; ++w) pool.emplace_back(drain);
      for (auto& t : pool) t.join();
    }
  }
  return std::move(profiles.front());
}

}  // namespace dcprof::analysis
