#include "verify/oracle.h"

#include <stdexcept>
#include <utility>

#include "sim/address_space.h"

namespace dcprof::verify {

using core::Cct;
using core::MetricVec;
using core::NodeKind;
using core::StorageClass;
using core::ThreadProfile;

// --- OracleCct ---------------------------------------------------------

std::uint32_t OracleCct::child(std::uint32_t parent, NodeKind kind,
                               std::uint64_t sym) {
  const Key key{parent, static_cast<std::uint8_t>(kind), sym};
  const auto it = index_.find(key);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.push_back(Node{kind, sym, parent, MetricVec{}});
  index_.emplace(key, id);
  return id;
}

void OracleCct::load(const Cct& src) {
  nodes_.clear();
  index_.clear();
  for (const auto& n : src.nodes()) {
    nodes_.push_back(Node{n.kind, n.sym, n.parent, n.metrics});
  }
  if (nodes_.empty()) nodes_.push_back(Node{});
  for (std::uint32_t id = 1; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    index_.emplace(
        Key{n.parent, static_cast<std::uint8_t>(n.kind), n.sym}, id);
  }
}

Cct OracleCct::to_cct() const {
  std::vector<Cct::Node> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) {
    out.push_back(Cct::Node{n.kind, n.sym, n.parent, n.metrics});
  }
  Cct cct;
  cct.load_nodes(std::move(out));
  return cct;
}

// --- OracleStringTable -------------------------------------------------

std::uint64_t OracleStringTable::intern(const std::string& s) {
  const auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  const std::uint64_t id = strings_.size();
  strings_.push_back(s);
  index_.emplace(s, id);
  return id;
}

// --- OraclePatternRecorder ---------------------------------------------

void OraclePatternRecorder::record(std::uint8_t cls, std::uint64_t id,
                                   std::uint64_t addr, bool is_store,
                                   std::uint8_t level) {
  core::VarPattern& p = table_->entry(cls, id);
  Var& v = vars_[core::VarPatternKey{cls, id}];
  const std::uint64_t index = ++v.accesses;
  ++p.accesses;
  if (level < core::kNumMemLevels) ++p.level_channel[level][is_store ? 1 : 0];
  const auto [last, first_touch] =
      v.last_touch.try_emplace(addr >> core::kPatternLineShift, index);
  if (first_touch) {
    ++p.cold_lines;
  } else {
    ++p.reuse[core::pattern_bucket(index - last->second)];
    last->second = index;
  }
  if (v.last_addr) {
    const std::uint64_t prev = *v.last_addr;
    ++p.stride[core::pattern_bucket(addr >= prev ? addr - prev : prev - addr)];
  }
  v.last_addr = addr;
}

// --- OracleProfile -----------------------------------------------------

OracleProfile OracleProfile::from(const ThreadProfile& p) {
  OracleProfile out;
  out.rank = p.rank;
  out.tid = p.tid;
  out.sampling_period = p.sampling_period;
  for (std::size_t i = 0; i < p.strings.size(); ++i) {
    out.strings.intern(p.strings.str(i));
  }
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    out.ccts[c].load(p.ccts[c]);
  }
  out.patterns = p.patterns;
  return out;
}

ThreadProfile OracleProfile::to_profile() const {
  ThreadProfile out;
  out.rank = rank;
  out.tid = tid;
  out.sampling_period = sampling_period;
  for (const std::string& s : strings.strings()) out.strings.intern(s);
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    out.ccts[c] = ccts[c].to_cct();
  }
  out.patterns = patterns;
  return out;
}

// --- Reference merge ---------------------------------------------------

void oracle_merge_into(OracleProfile& dst, const OracleProfile& src) {
  // Mirror of the merge contract: walk src nodes in id order (parents
  // first), find-or-create the remapped node in dst, accumulate metrics;
  // kVarStatic symbols re-intern through dst's table.
  for (std::size_t c = 0; c < core::kNumStorageClasses; ++c) {
    const auto& src_nodes = src.ccts[c].nodes();
    std::vector<std::uint32_t> remap;
    remap.reserve(src_nodes.size());
    for (std::uint32_t id = 0; id < src_nodes.size(); ++id) {
      const OracleCct::Node& n = src_nodes[id];
      if (id == 0) {
        remap.push_back(0);
        dst.ccts[c].add_metrics(0, n.metrics);
        continue;
      }
      std::uint64_t sym = n.sym;
      if (n.kind == NodeKind::kVarStatic) {
        sym = dst.strings.intern(src.strings.str(sym));
      }
      const std::uint32_t mine =
          dst.ccts[c].child(remap[n.parent], n.kind, sym);
      remap.push_back(mine);
      dst.ccts[c].add_metrics(mine, n.metrics);
    }
  }
  // Pattern tables fold after the CCTs, mirroring merge_into's order.
  dst.patterns.merge_from(
      src.patterns, [&](std::uint8_t cls, std::uint64_t id) -> std::uint64_t {
        if (cls == static_cast<std::uint8_t>(StorageClass::kStatic) ||
            cls == static_cast<std::uint8_t>(StorageClass::kStack)) {
          return dst.strings.intern(src.strings.str(id));
        }
        return id;
      });
  if (dst.rank != src.rank) dst.rank = -1;
  dst.tid = -1;
}

ThreadProfile oracle_reduce(const std::vector<ThreadProfile>& profiles) {
  if (profiles.empty()) {
    throw std::invalid_argument("oracle_reduce: no profiles");
  }
  std::vector<OracleProfile> work;
  work.reserve(profiles.size());
  for (const auto& p : profiles) work.push_back(OracleProfile::from(p));
  // The same pairwise reduction tree analysis::reduce walks.
  for (std::size_t stride = 1; stride < work.size(); stride *= 2) {
    for (std::size_t i = 0; i + stride < work.size(); i += 2 * stride) {
      oracle_merge_into(work[i], work[i + stride]);
    }
  }
  return work.front().to_profile();
}

// --- OracleProfiler ----------------------------------------------------

OracleProfiler::OracleProfiler(binfmt::ModuleRegistry& modules,
                               OracleConfig cfg, std::int32_t rank)
    : modules_(&modules), cfg_(cfg), rank_(rank) {}

void OracleProfiler::attach_pmu(pmu::PmuSet& pmu) {
  pmu_ = &pmu;
  pmu.set_handler([this](const pmu::Sample& s) { handle_sample(s); });
}

void OracleProfiler::attach_allocator(rt::Allocator& alloc) {
  alloc.set_hooks(rt::AllocHooks{
      [this](rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size,
             sim::Addr ip) { on_alloc(ctx, base, size, ip); },
      [this](rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size) {
        on_free(ctx, base, size);
      }});
}

void OracleProfiler::register_thread(rt::ThreadCtx& ctx) {
  const auto tid = static_cast<std::size_t>(ctx.tid());
  if (threads_.size() <= tid) threads_.resize(tid + 1, nullptr);
  threads_[tid] = &ctx;
}

void OracleProfiler::register_team(rt::Team& team) {
  for (int t = 0; t < team.size(); ++t) register_thread(team.thread(t));
}

OracleProfile& OracleProfiler::profile(std::size_t tid) {
  if (profiles_.size() <= tid) profiles_.resize(tid + 1);
  if (!profiles_[tid]) {
    profiles_[tid] = std::make_unique<OracleProfile>();
    profiles_[tid]->rank = rank_;
    profiles_[tid]->tid = static_cast<std::int32_t>(tid);
  }
  return *profiles_[tid];
}

void OracleProfiler::on_alloc(rt::ThreadCtx& ctx, sim::Addr base,
                              std::uint64_t size, sim::Addr alloc_ip) {
  if (!cfg_.track_all && size < cfg_.size_threshold) {
    if (cfg_.small_sample_period == 0) return;
    // Same per-thread sub-threshold sampling contract as AllocTracker:
    // each thread tracks exactly its Nth, 2Nth, ... small allocation.
    std::uint64_t& countdown = small_countdown_[ctx.tid()];
    if (countdown == 0) countdown = cfg_.small_sample_period;
    if (--countdown != 0) return;
  }
  const std::span<const sim::Addr> stack = ctx.call_stack();
  heap_[base] = Block{base, size,
                      std::vector<sim::Addr>(stack.begin(), stack.end()),
                      alloc_ip};
}

void OracleProfiler::on_free(rt::ThreadCtx& ctx, sim::Addr base,
                             std::uint64_t size) {
  (void)ctx;
  (void)size;
  heap_.erase(base);
}

const OracleProfiler::Block* OracleProfiler::find_block(
    sim::Addr addr) const {
  auto it = heap_.upper_bound(addr);
  if (it == heap_.begin()) return nullptr;
  --it;
  const Block& b = it->second;
  if (addr >= b.base && addr - b.base < b.size) return &b;
  return nullptr;
}

void OracleProfiler::attribute(OracleProfile& p, StorageClass sc,
                               std::uint32_t anchor,
                               std::span<const sim::Addr> stack,
                               sim::Addr leaf_ip, const MetricVec& m) {
  OracleCct& cct = p.ccts[static_cast<std::size_t>(sc)];
  std::uint32_t cur = anchor;
  for (const sim::Addr frame : stack) {
    cur = cct.child(cur, NodeKind::kCallSite, frame);
  }
  cct.add_metrics(cct.child(cur, NodeKind::kLeafInstr, leaf_ip), m);
}

void OracleProfiler::handle_sample(const pmu::Sample& sample) {
  const auto tid = static_cast<std::size_t>(sample.tid);
  if (tid >= threads_.size() || threads_[tid] == nullptr) return;
  rt::ThreadCtx& ctx = *threads_[tid];
  OracleProfile& p = profile(tid);
  const MetricVec m = MetricVec::from_sample(sample);
  const sim::Addr leaf_ip =
      cfg_.use_precise_ip ? sample.precise_ip : sample.signal_ip;

  if (!sample.is_memory) {
    attribute(p, StorageClass::kNoMem, 0, ctx.call_stack(), leaf_ip, m);
    return;
  }
  const auto record = [&](StorageClass sc, std::uint64_t id) {
    if (!cfg_.access_patterns) return;
    recorders_.try_emplace(tid, p.patterns)
        .first->second.record(static_cast<std::uint8_t>(sc), id, sample.eaddr,
                              sample.is_store,
                              static_cast<std::uint8_t>(sample.source));
  };
  if (const Block* block = find_block(sample.eaddr)) {
    // Same heap key the production profiler uses: the innermost
    // allocation-path caller, else the allocation instruction.
    record(StorageClass::kHeap,
           block->frames.empty() ? block->alloc_ip : block->frames.back());
    OracleCct& cct = p.ccts[static_cast<std::size_t>(StorageClass::kHeap)];
    std::uint32_t cur = 0;
    for (const sim::Addr frame : block->frames) {
      cur = cct.child(cur, NodeKind::kCallSite, frame);
    }
    cur = cct.child(cur, NodeKind::kAllocPoint, block->alloc_ip);
    const std::uint32_t anchor = cct.child(cur, NodeKind::kVarData, 0);
    attribute(p, StorageClass::kHeap, anchor, ctx.call_stack(), leaf_ip, m);
    return;
  }
  if (auto hit = modules_->resolve_static(sample.eaddr)) {
    const std::uint64_t name = p.strings.intern(hit->sym->name);
    record(StorageClass::kStatic, name);
    OracleCct& cct =
        p.ccts[static_cast<std::size_t>(StorageClass::kStatic)];
    const std::uint32_t dummy = cct.child(0, NodeKind::kVarStatic, name);
    attribute(p, StorageClass::kStatic, dummy, ctx.call_stack(), leaf_ip,
              m);
    return;
  }
  if (cfg_.attribute_stack && sample.eaddr >= sim::kStackBase) {
    const std::uint64_t owner = (sample.eaddr - sim::kStackBase) >> 20;
    const std::uint64_t name = p.strings.intern(
        "stack (thread " + std::to_string(static_cast<long>(owner)) + ")");
    record(StorageClass::kStack, name);
    OracleCct& cct = p.ccts[static_cast<std::size_t>(StorageClass::kStack)];
    const std::uint32_t dummy = cct.child(0, NodeKind::kVarStatic, name);
    attribute(p, StorageClass::kStack, dummy, ctx.call_stack(), leaf_ip, m);
    return;
  }
  record(StorageClass::kUnknown, 0);
  attribute(p, StorageClass::kUnknown, 0, ctx.call_stack(), leaf_ip, m);
}

std::vector<ThreadProfile> OracleProfiler::take_profiles() {
  std::uint64_t period = 0;
  if (pmu_ != nullptr && !pmu_->configs().empty()) {
    period = pmu_->configs()[0].period;
  }
  std::vector<ThreadProfile> out;
  for (auto& p : profiles_) {
    if (p) {
      p->sampling_period = period;
      out.push_back(p->to_profile());
    }
  }
  recorders_.clear();
  profiles_.clear();
  return out;
}

}  // namespace dcprof::verify
