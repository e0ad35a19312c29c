// The reference oracle: a deliberately simple, unmemoized reimplementation
// of sample attribution and profile merging, used to differentially verify
// the production fast path (memoized attribution, MRU var-map, flat-hash
// CCT child index, streaming merge). Everything here favors obviousness
// over speed:
//
//   * child lookup is an ordered std::map over (parent, kind, sym) — no
//     hashing, no open addressing, no CSR adjacency;
//   * every sample walks its full calling context from the anchor — no
//     watermarks, no per-class memo, no anchor cache;
//   * the heap map is a plain std::map interval probe — no MRU ways;
//   * strings intern through an ordered std::map;
//   * access patterns record through ordered maps — no line hash table,
//     no variable or same-line memo.
//
// The oracle still assigns node ids in creation order and interns strings
// first-use order, because that *is* the serialization contract — so a
// correct fast path produces byte-identical `.dcpf` output, and the
// differential harness compares whole serialized profiles, not summaries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "binfmt/load_module.h"
#include "core/profile.h"
#include "pmu/pmu.h"
#include "rt/alloc.h"
#include "rt/team.h"
#include "rt/thread.h"

namespace dcprof::verify {

/// Reference CCT: same node/id semantics as core::Cct, with the child
/// index kept as an ordered map (the pre-optimization data structure).
class OracleCct {
 public:
  struct Node {
    core::NodeKind kind = core::NodeKind::kRoot;
    std::uint64_t sym = 0;
    std::uint32_t parent = 0;
    core::MetricVec metrics;
  };

  OracleCct() { nodes_.push_back(Node{}); }

  std::uint32_t child(std::uint32_t parent, core::NodeKind kind,
                      std::uint64_t sym);
  void add_metrics(std::uint32_t id, const core::MetricVec& m) {
    nodes_[id].metrics += m;
  }
  std::size_t size() const { return nodes_.size(); }
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Rebuilds this oracle tree from a production CCT's node array
  /// (id-preserving; used to seed reference merges).
  void load(const core::Cct& src);
  /// Converts to a production CCT via bulk node loading.
  core::Cct to_cct() const;

 private:
  using Key = std::tuple<std::uint32_t, std::uint8_t, std::uint64_t>;
  std::vector<Node> nodes_;
  std::map<Key, std::uint32_t> index_;
};

/// Reference string table: first-use interning through an ordered map.
class OracleStringTable {
 public:
  std::uint64_t intern(const std::string& s);
  const std::string& str(std::uint64_t id) const { return strings_.at(id); }
  std::size_t size() const { return strings_.size(); }
  const std::vector<std::string>& strings() const { return strings_; }

 private:
  std::vector<std::string> strings_;
  std::map<std::string, std::uint64_t> index_;
};

/// Reference access-pattern recorder: the counters core::PatternRecorder
/// records into a table, computed the obvious way. Per variable, an
/// ordered map from cache line to the index of the variable's access
/// that last touched it, plus the previous sampled address.
class OraclePatternRecorder {
 public:
  explicit OraclePatternRecorder(core::AccessPatternTable& table)
      : table_(&table) {}

  void record(std::uint8_t cls, std::uint64_t id, std::uint64_t addr,
              bool is_store, std::uint8_t level);

 private:
  struct Var {
    std::uint64_t accesses = 0;
    std::map<std::uint64_t, std::uint64_t> last_touch;  ///< line -> index
    std::optional<std::uint64_t> last_addr;
  };
  core::AccessPatternTable* table_;
  std::map<core::VarPatternKey, Var> vars_;
};

/// A profile held entirely in oracle structures. Its access-pattern
/// table is core::AccessPatternTable, plain counters with nothing of a
/// fast path in them; OracleProfiler fills it with OraclePatternRecorder.
struct OracleProfile {
  std::int32_t rank = 0;
  std::int32_t tid = 0;
  std::uint64_t sampling_period = 0;
  OracleStringTable strings;
  OracleCct ccts[core::kNumStorageClasses];
  core::AccessPatternTable patterns;

  static OracleProfile from(const core::ThreadProfile& p);
  core::ThreadProfile to_profile() const;
};

/// Reference merge: replays merge_into's contract (src nodes in id order,
/// find-or-create in dst, kVarStatic syms re-interned through dst's
/// table) on oracle structures.
void oracle_merge_into(OracleProfile& dst, const OracleProfile& src);

/// Reference many-profile reduction: the same pairwise reduction-tree
/// order as analysis::reduce, every merge done by the oracle. Byte-for-
/// byte comparable with the production reduce over the same inputs.
core::ThreadProfile oracle_reduce(
    const std::vector<core::ThreadProfile>& profiles);

/// Config knobs that affect profile *content* (the fast-path toggles —
/// memoization, MRU — have no oracle equivalent by construction).
struct OracleConfig {
  std::uint64_t size_threshold = 4096;
  bool track_all = false;
  std::uint64_t small_sample_period = 0;
  bool use_precise_ip = true;
  bool attribute_stack = true;
  bool access_patterns = true;
};

/// The reference profiler. Attachable exactly like core::Profiler (PMU
/// handler + allocator hooks + registered threads) so a deterministic
/// workload re-run under the oracle yields comparable profiles.
class OracleProfiler {
 public:
  explicit OracleProfiler(binfmt::ModuleRegistry& modules,
                          OracleConfig cfg = {}, std::int32_t rank = 0);

  void attach_pmu(pmu::PmuSet& pmu);
  void attach_allocator(rt::Allocator& alloc);
  void register_thread(rt::ThreadCtx& ctx);
  void register_team(rt::Team& team);

  void handle_sample(const pmu::Sample& sample);
  void on_alloc(rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size,
                sim::Addr alloc_ip);
  void on_free(rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size);

  std::vector<core::ThreadProfile> take_profiles();

 private:
  struct Block {
    sim::Addr base = 0;
    std::uint64_t size = 0;
    std::vector<sim::Addr> frames;
    sim::Addr alloc_ip = 0;
  };

  OracleProfile& profile(std::size_t tid);
  const Block* find_block(sim::Addr addr) const;
  /// Full-walk context insertion under `anchor`, metric add at the leaf.
  void attribute(OracleProfile& p, core::StorageClass sc,
                 std::uint32_t anchor, std::span<const sim::Addr> stack,
                 sim::Addr leaf_ip, const core::MetricVec& m);

  binfmt::ModuleRegistry* modules_;
  OracleConfig cfg_;
  std::int32_t rank_;
  pmu::PmuSet* pmu_ = nullptr;
  std::map<sim::Addr, Block> heap_;                       // by base
  std::map<sim::ThreadId, std::uint64_t> small_countdown_;  // by tid
  std::vector<rt::ThreadCtx*> threads_;                   // by tid
  std::vector<std::unique_ptr<OracleProfile>> profiles_;  // by tid
  std::map<std::size_t, OraclePatternRecorder> recorders_;  // by tid
};

}  // namespace dcprof::verify
