#include "analysis/merge.h"

#include <stdexcept>
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

  void on_header(std::int32_t rank, std::int32_t tid,
                 std::uint64_t /*sampling_period*/) override {
    row_.rank = rank;
    row_.tid = tid;
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
    row_.metrics += m;
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

  const ThreadRow& row() const { return row_; }

 private:
  /// merge_into's rank/tid aggregation. Applied with the records (every
  /// string and every CCT root; idempotent) rather than with the header,
  /// so a merge that fails before its first record leaves `dst` exactly
  /// as untouched as a salvage that kept nothing.
  void aggregate_ids() {
    if (dst_.rank != row_.rank) dst_.rank = -1;
    dst_.tid = -1;
  }

  ThreadProfile& dst_;
  std::vector<std::string> strings_;
  std::vector<Cct::NodeId> remap_;
  std::size_t class_ = 0;
  ThreadRow row_;
};

}  // namespace

ThreadRow merge_serialized(ThreadProfile& dst, std::string_view payload) {
  StreamMerger merger(dst);
  ThreadProfile::scan(payload, merger);
  return merger.row();
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

}  // namespace dcprof::analysis
