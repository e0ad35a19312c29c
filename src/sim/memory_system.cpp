#include "sim/memory_system.h"

#include <algorithm>
#include <stdexcept>

namespace dcprof::sim {

MemorySystem::MemorySystem(const MachineConfig& cfg)
    : cfg_(cfg), page_table_(cfg.page_bytes, cfg.num_nodes()),
      overrides_(cfg.page_bytes) {
  obs::Registry& reg = obs::Registry::global();
  tm_.l1 = reg.counter("sim.accesses", {{"level", "l1"}});
  tm_.l2 = reg.counter("sim.accesses", {{"level", "l2"}});
  tm_.l3 = reg.counter("sim.accesses", {{"level", "l3"}});
  tm_.local_dram = reg.counter("sim.accesses", {{"level", "local_dram"}});
  tm_.remote_dram = reg.counter("sim.accesses", {{"level", "remote_dram"}});
  tm_.tlb_misses = reg.counter("sim.tlb_misses");
  tm_.prefetched = reg.counter("sim.prefetched");
  const int cores = cfg_.num_cores();
  l1_.reserve(static_cast<std::size_t>(cores));
  l2_.reserve(static_cast<std::size_t>(cores));
  tlbs_.reserve(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) {
    l1_.emplace_back(cfg_.l1);
    l2_.emplace_back(cfg_.l2);
    tlbs_.emplace_back(cfg_.tlb_entries, cfg_.page_bytes);
    prefetchers_.emplace_back();
  }
  for (int s = 0; s < cfg_.sockets; ++s) l3_.emplace_back(cfg_.l3);
  for (int n = 0; n < cfg_.num_nodes(); ++n) {
    controllers_.emplace_back(cfg_.lat.dram_service, cfg_.lat.dram_banks);
  }
}

bool MemorySystem::walk_caches(CoreId core, Addr addr, bool is_store,
                               AccessResult& r, bool skip_tlb,
                               std::uint64_t& view_misses) {
  const auto ci = static_cast<std::size_t>(core);
  if (!skip_tlb) {
    Tlb& tlb = tlbs_[ci];
    const bool tlb_hit = tlb_variants_.empty() ? tlb.access(addr)
                                               : tlb.access(addr, view_misses);
    r.tlb_miss = !tlb_hit;
    if (r.tlb_miss) {
      r.latency += cfg_.lat.tlb_walk;
      tm_.tlb_misses.inc();
    }
  }

  if (l1_[ci].access(addr)) {
    // Store hits drain through the store buffer without a stall.
    r.latency += is_store ? cfg_.lat.store_hit : cfg_.lat.l1;
    r.level = MemLevel::kL1;
    tm_.l1.inc();
    return true;
  }
  if (l2_[ci].access(addr)) {
    r.latency += cfg_.lat.l2;
    r.level = MemLevel::kL2;
    tm_.l2.inc();
    return true;
  }
  const auto si = static_cast<std::size_t>(cfg_.socket_of(core));
  if (l3_[si].access(addr)) {
    r.latency += cfg_.lat.l3;
    r.level = MemLevel::kL3;
    tm_.l3.inc();
    return true;
  }
  return false;
}

bool MemorySystem::consult_prefetcher(CoreId core, Addr addr) {
  if (!cfg_.lat.prefetch_enabled) return false;
  const Addr line = addr / cfg_.l1.line_bytes;
  const auto lines_per_page =
      static_cast<unsigned>(cfg_.page_bytes / cfg_.l1.line_bytes);
  return prefetchers_[static_cast<std::size_t>(core)].access(line,
                                                             lines_per_page);
}

NodeId MemorySystem::touch_page(PageTable& pt, Addr addr, NodeId toucher,
                                const OverrideEntry* ov) {
  if (ov != nullptr && ov->placement == PlacementOverride::kInterleave) {
    const PlacementPolicy forced = PlacementPolicy::kInterleave;
    return pt.touch(addr, toucher, &forced);
  }
  return pt.touch(addr, toucher);
}

void MemorySystem::resolve_fill(const OverrideEntry* ov, NodeId home,
                                NodeId toucher, bool prefetched, Cycles now,
                                std::vector<DramController>& controllers,
                                AccessResult& r) const {
  if (ov != nullptr) {
    if (ov->latency == LatencyOverride::kZero) {
      // Oracle bound: the fill costs nothing — no DRAM time, no
      // controller bandwidth (the TLB was bypassed).
      r.latency = 0;
      r.prefetched = false;
      r.home = home;
      r.level = MemLevel::kL3;
      return;
    }
    if (ov->placement == PlacementOverride::kLocal) {
      // Perfect placement: the fill is served by the toucher's own
      // controller regardless of where first touch bound the page.
      home = toucher;
    }
    if (ov->latency == LatencyOverride::kNextLevel) {
      if (home == toucher) {
        // Local DRAM promoted to an L3 hit. (The TLB walk was never
        // charged: a layout fix that achieves this also restores
        // translation locality, so the TLB was bypassed.)
        r.latency += cfg_.lat.l3;
        r.prefetched = false;
        r.home = home;
        r.level = MemLevel::kL3;
        return;
      }
      // Remote DRAM promoted one level: costs a local fill, served by
      // the toucher's controller.
      home = toucher;
    }
  }
  r.home = home;
  const bool remote = home != toucher;
  r.queue_wait = controllers[static_cast<std::size_t>(home)].serve(now);
  r.prefetched = prefetched;
  if (prefetched) {
    // The stream prefetcher hid most of the fill; the access still
    // consumed controller bandwidth (the serve() above).
    r.latency += cfg_.lat.prefetch_hit + r.queue_wait +
                 (remote ? cfg_.lat.prefetch_remote_extra : 0);
  } else {
    r.latency += cfg_.lat.l3 + cfg_.lat.dram + r.queue_wait +
                 (remote ? cfg_.lat.remote_extra : 0);
  }
  r.level = remote ? MemLevel::kRemoteDram : MemLevel::kLocalDram;
}

AccessResult MemorySystem::access(ThreadId tid, CoreId core, Addr addr,
                                  bool is_store, Cycles now) {
  const OverrideEntry* ov =
      overrides_.empty() ? nullptr : overrides_.lookup(addr);
  const bool skip_tlb = bypasses_tlb(ov);
  AccessResult r;
  std::uint64_t view_misses = 0;
  if (mru_hit(core, addr, is_store, skip_tlb, r) ||
      walk_caches(core, addr, is_store, r, skip_tlb, view_misses)) {
    if (!tlb_variants_.empty() && (r.tlb_miss || view_misses != 0)) {
      time_hit(tid, r, view_misses);
    }
    return r;
  }
  // DRAM fill: bind the page (first touch) and pay the home controller.
  const NodeId toucher = cfg_.node_of(core);
  const NodeId home = touch_page(page_table_, addr, toucher, ov);
  const bool prefetched = consult_prefetcher(core, addr);
  resolve_fill(ov, home, toucher, prefetched, now, controllers_, r);
  if (r.prefetched) tm_.prefetched.inc();
  switch (r.level) {
    case MemLevel::kLocalDram: tm_.local_dram.inc(); break;
    case MemLevel::kRemoteDram: tm_.remote_dram.inc(); break;
    default: tm_.l3.inc(); break;
  }
  if (!variants_.empty()) {
    time_fill(tid, addr, toucher, home, prefetched, now, r, view_misses);
  }
  return r;
}

void MemorySystem::time_hit(ThreadId tid, const AccessResult& r,
                            std::uint64_t view_misses) {
  const auto t = static_cast<std::size_t>(tid);
  const auto walk = static_cast<std::int64_t>(cfg_.lat.tlb_walk);
  for (std::size_t v = 0; v < tlb_variants_.size(); ++v) {
    // Same cache level as the primary; only the TLB walk can differ.
    tlb_variants_[v]->offset[t] +=
        walk * (static_cast<std::int64_t>((view_misses >> v) & 1) -
                static_cast<std::int64_t>(r.tlb_miss));
  }
}

void MemorySystem::time_fill(ThreadId tid, Addr addr, NodeId toucher,
                             NodeId home, bool prefetched, Cycles now,
                             const AccessResult& r,
                             std::uint64_t view_misses) {
  const auto t = static_cast<std::size_t>(tid);
  for (const auto& vp : variants_) {
    Variant& v = *vp;
    const OverrideEntry* ov =
        v.overrides.empty() ? nullptr : v.overrides.lookup(addr);
    AccessResult vr;
    const bool tlb_miss =
        v.tlb_view < 0 ? r.tlb_miss : ((view_misses >> v.tlb_view) & 1) != 0;
    if (tlb_miss) vr.latency = cfg_.lat.tlb_walk;
    const NodeId v_home = v.page_table != nullptr
                              ? touch_page(*v.page_table, addr, toucher, ov)
                              : home;
    std::int64_t& off = v.offset[t];
    resolve_fill(ov, v_home, toucher, prefetched,
                 now + static_cast<Cycles>(off), v.controllers, vr);
    off += static_cast<std::int64_t>(vr.latency) -
           static_cast<std::int64_t>(r.latency);
  }
}

void MemorySystem::set_policy(Addr base, std::uint64_t size,
                              PlacementPolicy policy, NodeId fixed_node) {
  page_table_.set_policy(base, size, policy, fixed_node);
  for (const auto& v : variants_) {
    if (v->page_table) {
      v->page_table->set_policy(base, size, policy, fixed_node);
    }
  }
}

void MemorySystem::release_range(Addr base, std::uint64_t size) {
  page_table_.release_range(base, size);
  for (const auto& v : variants_) {
    if (v->page_table) v->page_table->release_range(base, size);
  }
}

void MemorySystem::add_override(int variant, Addr base, std::uint64_t size,
                                OverrideEntry entry) {
  if (variant == kPrimary) {
    if (!variants_.empty()) {
      throw std::logic_error(
          "primary overrides would change the state timing variants share");
    }
    overrides_.add_range(base, size, entry);
    update_inline_ok();
    return;
  }
  Variant& v = *variants_.at(static_cast<std::size_t>(variant));
  if ((entry.latency != LatencyOverride::kNone && v.tlb_view < 0) ||
      (entry.placement == PlacementOverride::kInterleave && !v.page_table)) {
    throw std::logic_error(
        "variant override needs state the variant does not own");
  }
  v.overrides.add_range(base, size, entry);
  rebase_tlb_views(v);
}

void MemorySystem::remove_override(int variant, Addr base,
                                   std::uint64_t size) {
  if (variant == kPrimary) {
    overrides_.remove_range(base, size);
    update_inline_ok();
    return;
  }
  Variant& v = *variants_.at(static_cast<std::size_t>(variant));
  v.overrides.remove_range(base, size);
  rebase_tlb_views(v);
}

void MemorySystem::rebase_tlb_views(const Variant& v) {
  if (v.tlb_view < 0) return;
  for (Tlb& t : tlbs_) t.rebase_view(static_cast<unsigned>(v.tlb_view));
}

int MemorySystem::add_variant(int threads, VariantOwnership own) {
  if (!overrides_.empty()) {
    throw std::logic_error("timing variants need an unpatched primary");
  }
  auto v = std::make_unique<Variant>(cfg_.page_bytes);
  v->offset.assign(static_cast<std::size_t>(threads), 0);
  v->controllers = controllers_;
  if (own.tlb) {
    // Every core's TLB carries the same views, so the first throws past
    // Tlb::kMaxViews before any changes.
    for (Tlb& t : tlbs_) t.add_view(v->overrides);
    v->tlb_view = static_cast<int>(tlb_variants_.size());
    tlb_variants_.push_back(v.get());
  }
  if (own.page_table) v->page_table = std::make_unique<PageTable>(page_table_);
  variants_.push_back(std::move(v));
  return static_cast<int>(variants_.size()) - 1;
}

void MemorySystem::sync_variant_clocks(std::span<const Cycles> clocks,
                                       Cycles to) {
  for (const auto& v : variants_) {
    Cycles max = 0;
    for (std::size_t t = 0; t < clocks.size(); ++t) {
      max = std::max(max, clocks[t] + static_cast<Cycles>(v->offset[t]));
    }
    const auto off = static_cast<std::int64_t>(max - to);
    for (std::size_t t = 0; t < clocks.size(); ++t) v->offset[t] = off;
  }
}

MemLevelStats MemorySystem::stats() const {
  MemLevelStats s;
  s.l1_hits = tm_.l1.value();
  s.l2_hits = tm_.l2.value();
  s.l3_hits = tm_.l3.value();
  s.local_dram = tm_.local_dram.value();
  s.remote_dram = tm_.remote_dram.value();
  s.tlb_misses = tm_.tlb_misses.value();
  s.prefetched = tm_.prefetched.value();
  return s;
}

void MemorySystem::flush_caches() {
  for (auto& c : l1_) c.clear();
  for (auto& c : l2_) c.clear();
  for (auto& c : l3_) c.clear();
  for (auto& t : tlbs_) t.clear();
}

std::uint64_t MemorySystem::variant_tlb_steps() const {
  std::uint64_t steps = 0;
  for (const Tlb& t : tlbs_) steps += t.view_steps();
  return steps;
}

}  // namespace dcprof::sim
