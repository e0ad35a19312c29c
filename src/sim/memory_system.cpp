#include "sim/memory_system.h"

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
                               AccessResult& r, bool skip_tlb) {
  const auto ci = static_cast<std::size_t>(core);
  if (!skip_tlb) {
    const bool tlb_hit = tlbs_[ci].access(addr);
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

NodeId MemorySystem::touch_page(Addr addr, NodeId toucher,
                                const OverrideEntry* ov) {
  if (ov != nullptr && ov->placement == PlacementOverride::kInterleave) {
    const PlacementPolicy forced = PlacementPolicy::kInterleave;
    return page_table_.touch(addr, toucher, &forced);
  }
  return page_table_.touch(addr, toucher);
}

void MemorySystem::finish_dram(Addr addr, NodeId home, NodeId toucher,
                               bool prefetched, Cycles now, AccessResult& r,
                               const OverrideEntry* ov) {
  (void)addr;
  if (ov != nullptr) {
    if (ov->latency == LatencyOverride::kZero) {
      // Oracle bound: the fill costs nothing — no DRAM time, no
      // controller bandwidth (the TLB was bypassed in walk_caches).
      r.latency = 0;
      r.prefetched = false;
      r.home = home;
      r.level = MemLevel::kL3;
      tm_.l3.inc();
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
        // translation locality, so walk_caches bypassed the TLB.)
        r.latency += cfg_.lat.l3;
        r.prefetched = false;
        r.home = home;
        r.level = MemLevel::kL3;
        tm_.l3.inc();
        return;
      }
      // Remote DRAM promoted one level: costs a local fill, served by
      // the toucher's controller.
      home = toucher;
    }
  }
  r.home = home;
  const bool remote = home != toucher;
  r.queue_wait = controllers_[static_cast<std::size_t>(home)].serve(now);
  r.prefetched = prefetched;
  if (prefetched) {
    // The stream prefetcher hid most of the fill; the access still
    // consumed controller bandwidth (the serve() above).
    r.latency += cfg_.lat.prefetch_hit + r.queue_wait +
                 (remote ? cfg_.lat.prefetch_remote_extra : 0);
    tm_.prefetched.inc();
  } else {
    r.latency += cfg_.lat.l3 + cfg_.lat.dram + r.queue_wait +
                 (remote ? cfg_.lat.remote_extra : 0);
  }
  if (remote) {
    r.level = MemLevel::kRemoteDram;
    tm_.remote_dram.inc();
  } else {
    r.level = MemLevel::kLocalDram;
    tm_.local_dram.inc();
  }
}

AccessResult MemorySystem::access(CoreId core, Addr addr, bool is_store,
                                  Cycles now) {
  AccessResult r;
  const OverrideEntry* ov =
      overrides_.empty() ? nullptr : overrides_.lookup(addr);
  const bool skip_tlb = ov != nullptr && ov->latency != LatencyOverride::kNone;
  if (walk_caches(core, addr, is_store, r, skip_tlb)) return r;
  // DRAM fill: bind the page (first touch) and pay the home controller.
  const NodeId toucher = cfg_.node_of(core);
  const NodeId home = touch_page(addr, toucher, ov);
  const bool prefetched = consult_prefetcher(core, addr);
  finish_dram(addr, home, toucher, prefetched, now, r, ov);
  return r;
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

}  // namespace dcprof::sim
