#include "sim/memory_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <map>
#include <random>
#include <vector>

#include "sim/machine.h"

namespace dcprof::sim {
namespace {

MachineConfig tiny_machine() {
  MachineConfig cfg;
  cfg.sockets = 2;
  cfg.cores_per_socket = 2;
  cfg.l1 = CacheConfig{1024, 2, 64};
  cfg.l2 = CacheConfig{4096, 4, 64};
  cfg.l3 = CacheConfig{16384, 8, 64};
  cfg.tlb_entries = 4;
  return cfg;
}

TEST(DramController, NoWaitWhenIdle) {
  DramController ctrl(64, 2);
  EXPECT_EQ(ctrl.serve(1000), 0u);
}

TEST(DramController, BacklogBuildsUnderBurst) {
  DramController ctrl(64, 2);
  // Four accesses at the same instant: each sees the backlog the
  // previous ones deposited, divided by the drain rate.
  EXPECT_EQ(ctrl.serve(0), 0u);
  EXPECT_EQ(ctrl.serve(0), 32u);
  EXPECT_EQ(ctrl.serve(0), 64u);
  EXPECT_EQ(ctrl.serve(0), 96u);
}

TEST(DramController, BacklogDrainsWithTime) {
  DramController ctrl(64, 2);
  ctrl.serve(0);
  ctrl.serve(0);  // backlog = 128
  // 64 cycles later, 128 cycles of work have drained.
  EXPECT_EQ(ctrl.serve(64), 0u);
}

TEST(DramController, ConcurrentAccessesSeeSimilarWaits) {
  // The fairness property that motivated the leaky-bucket design: two
  // accesses issued into the same congestion observe comparable delays.
  DramController ctrl(64, 2);
  for (int i = 0; i < 10; ++i) ctrl.serve(0);  // pile up backlog
  const Cycles w1 = ctrl.serve(1);
  const Cycles w2 = ctrl.serve(1);
  EXPECT_GT(w1, 200u);
  EXPECT_GE(w2, w1);  // slightly more, not zero
}

TEST(DramController, StatsAccumulate) {
  DramController ctrl(64, 2);
  ctrl.serve(0);
  ctrl.serve(0);
  EXPECT_EQ(ctrl.accesses(), 2u);
  EXPECT_EQ(ctrl.total_wait(), 32u);
}

TEST(MemorySystem, HierarchyFillAndHitLevels) {
  MemorySystem mem(tiny_machine());
  const auto miss = mem.access(0, 0x100000, false, 0);
  EXPECT_TRUE(miss.level == MemLevel::kLocalDram ||
              miss.level == MemLevel::kRemoteDram);
  const auto hit = mem.access(0, 0x100000, false, 100);
  EXPECT_EQ(hit.level, MemLevel::kL1);
  EXPECT_LT(hit.latency, miss.latency);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  mem.access(0, 0x100000, false, 0);
  // Evict from L1 (1 KB, 2-way, 8 sets): fill the matching set.
  mem.access(0, 0x100000 + 512, false, 0);
  mem.access(0, 0x100000 + 1024, false, 0);
  const auto r = mem.access(0, 0x100000, false, 0);
  EXPECT_EQ(r.level, MemLevel::kL2);
}

TEST(MemorySystem, L3SharedWithinSocketOnly) {
  MemorySystem mem(tiny_machine());
  mem.access(0, 0x100000, false, 0);  // core 0 (socket 0) fills L3[0]
  // Core 1 is on socket 0: its first access finds the line in L3.
  const auto same_socket = mem.access(1, 0x100000, false, 0);
  EXPECT_EQ(same_socket.level, MemLevel::kL3);
  // Core 2 is on socket 1: it must go to DRAM.
  const auto other_socket = mem.access(2, 0x100000, false, 0);
  EXPECT_TRUE(other_socket.level == MemLevel::kLocalDram ||
              other_socket.level == MemLevel::kRemoteDram);
}

TEST(MemorySystem, LocalVersusRemoteByFirstTouch) {
  MemorySystem mem(tiny_machine());
  // Core 0 (node 0) touches the page first: home = node 0.
  const auto first = mem.access(0, 0x200000, false, 0);
  EXPECT_EQ(first.level, MemLevel::kLocalDram);
  EXPECT_EQ(first.home, 0);
  // Core 2 (node 1) misses everywhere: remote fill.
  const auto remote = mem.access(2, 0x200000, false, 0);
  EXPECT_EQ(remote.level, MemLevel::kRemoteDram);
  EXPECT_GT(remote.latency, first.latency - first.queue_wait);
}

TEST(MemorySystem, TlbMissAddsWalkLatency) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  const auto first = mem.access(0, 0x300000, false, 0);
  EXPECT_TRUE(first.tlb_miss);
  const auto second = mem.access(0, 0x300000, false, 0);
  EXPECT_FALSE(second.tlb_miss);
  EXPECT_EQ(mem.stats().tlb_misses, 1u);
}

TEST(MemorySystem, SequentialStreamGetsPrefetched) {
  MemorySystem mem(tiny_machine());
  // Two sequential line fills arm a stream; the third is prefetched.
  const auto a = mem.access(0, 0x400040, false, 0);
  const auto b = mem.access(0, 0x400080, false, 0);
  const auto c = mem.access(0, 0x4000c0, false, 0);
  EXPECT_FALSE(a.prefetched);
  EXPECT_TRUE(b.prefetched);
  EXPECT_TRUE(c.prefetched);
  EXPECT_LT(c.latency, a.latency + 1);
}

TEST(MemorySystem, StridedAccessDefeatsPrefetcher) {
  MemorySystem mem(tiny_machine());
  // Stride of 64 lines: no stream forms.
  for (int i = 1; i < 12; ++i) {
    const auto r =
        mem.access(0, 0x500000 + static_cast<Addr>(i) * 4096, false, 0);
    EXPECT_FALSE(r.prefetched) << "access " << i;
  }
}

TEST(MemorySystem, PrefetchRearmsAtPageBoundary) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  // Stream across a page boundary: the first line of the new page pays
  // full latency (prefetchers do not cross 4 KB).
  const Addr page = 0x600000;
  bool boundary_prefetched = true;
  for (Addr a = page; a < page + 2 * cfg.page_bytes; a += 64) {
    const auto r = mem.access(0, a, false, 0);
    if (a == page + cfg.page_bytes) boundary_prefetched = r.prefetched;
  }
  EXPECT_FALSE(boundary_prefetched);
}

TEST(MemorySystem, StoreHitsAreCheaperThanLoadHits) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  mem.access(0, 0x700000, false, 0);
  const auto load = mem.access(0, 0x700000, false, 0);
  const auto store = mem.access(0, 0x700000, true, 0);
  EXPECT_EQ(load.latency, cfg.lat.l1);
  EXPECT_EQ(store.latency, cfg.lat.store_hit);
}

TEST(MemorySystem, FlushCachesKeepsPlacement) {
  MemorySystem mem(tiny_machine());
  mem.access(0, 0x800000, false, 0);
  mem.flush_caches();
  const auto r = mem.access(2, 0x800000, false, 0);
  // Page still belongs to node 0 => remote for core 2.
  EXPECT_EQ(r.level, MemLevel::kRemoteDram);
}

TEST(MemorySystem, StatsCountEachLevel) {
  MemorySystem mem(tiny_machine());
  mem.access(0, 0x900000, false, 0);  // DRAM
  mem.access(0, 0x900000, false, 0);  // L1
  const auto& s = mem.stats();
  EXPECT_EQ(s.l1_hits, 1u);
  EXPECT_EQ(s.local_dram + s.remote_dram, 1u);
  EXPECT_EQ(s.total(), 2u);
}

// --- Reference model ---------------------------------------------------
//
// An independent restatement of the hierarchy's semantics: true LRU over
// std::list for every cache and TLB, a per-page map for the what-if
// overrides. It reuses only the parts MemorySystem shares unchanged
// (DramController, PageTable, StreamPrefetcher), so the packed tag
// arrays, the fixed TLB, the inline MRU path and the override lookup
// cache are all checked against it, not against themselves.

/// True-LRU tag store: one MRU-first list per set.
class RefCache {
 public:
  explicit RefCache(const CacheConfig& cfg)
      : shift_(static_cast<unsigned>(std::countr_zero(cfg.line_bytes))),
        ways_(cfg.associativity),
        sets_(cfg.size_bytes / (cfg.line_bytes * cfg.associativity)) {}

  bool access(Addr addr) {
    const Addr line = addr >> shift_;
    std::list<Addr>& set = sets_[line % sets_.size()];
    const auto it = std::find(set.begin(), set.end(), line);
    if (it != set.end()) {
      set.splice(set.begin(), set, it);
      ++hits;
      return true;
    }
    ++misses;
    set.push_front(line);
    if (set.size() > ways_) set.pop_back();
    return false;
  }
  void clear() {
    for (auto& set : sets_) set.clear();
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

 private:
  unsigned shift_;
  std::size_t ways_;
  std::vector<std::list<Addr>> sets_;
};

class RefMemory {
 public:
  explicit RefMemory(const MachineConfig& cfg)
      : cfg_(cfg), pt_(cfg.page_bytes, cfg.num_nodes()) {
    // A fully associative TLB is one set of `tlb_entries` page-sized lines.
    const CacheConfig tlb{cfg.page_bytes * cfg.tlb_entries, cfg.tlb_entries,
                          static_cast<unsigned>(cfg.page_bytes)};
    for (int c = 0; c < cfg.num_cores(); ++c) {
      l1.emplace_back(cfg.l1);
      l2.emplace_back(cfg.l2);
      tlbs.emplace_back(tlb);
      pf_.emplace_back();
    }
    for (int s = 0; s < cfg.sockets; ++s) l3.emplace_back(cfg.l3);
    for (int n = 0; n < cfg.num_nodes(); ++n) {
      dram.emplace_back(cfg.lat.dram_service, cfg.lat.dram_banks);
    }
  }

  /// First installed wins per page, as OverrideMap documents.
  void add_override(Addr base, std::uint64_t size, OverrideEntry e) {
    for (Addr p = base / cfg_.page_bytes;
         p <= (base + size - 1) / cfg_.page_bytes; ++p) {
      patches_.emplace(p, e);
    }
  }
  void remove_override(Addr base, std::uint64_t size) {
    for (Addr p = base / cfg_.page_bytes;
         p <= (base + size - 1) / cfg_.page_bytes; ++p) {
      patches_.erase(p);
    }
  }

  void flush() {
    for (auto& c : l1) c.clear();
    for (auto& c : l2) c.clear();
    for (auto& c : l3) c.clear();
    for (auto& t : tlbs) t.clear();
  }

  AccessResult access(CoreId core, Addr addr, bool is_store, Cycles now) {
    const LatencyConfig& lat = cfg_.lat;
    const auto c = static_cast<std::size_t>(core);
    const auto patch = patches_.find(addr / cfg_.page_bytes);
    const OverrideEntry* ov = patch == patches_.end() ? nullptr : &patch->second;
    AccessResult r;
    // A latency override bypasses the TLB entirely.
    if (ov == nullptr || ov->latency == LatencyOverride::kNone) {
      if (!tlbs[c].access(addr)) {
        r.tlb_miss = true;
        r.latency += lat.tlb_walk;
        ++stats.tlb_misses;
      }
    }
    if (l1[c].access(addr)) {
      r.latency += is_store ? lat.store_hit : lat.l1;
      ++stats.l1_hits;
      return r;
    }
    if (l2[c].access(addr)) {
      r.latency += lat.l2;
      r.level = MemLevel::kL2;
      ++stats.l2_hits;
      return r;
    }
    if (l3[static_cast<std::size_t>(cfg_.socket_of(core))].access(addr)) {
      r.latency += lat.l3;
      r.level = MemLevel::kL3;
      ++stats.l3_hits;
      return r;
    }
    const NodeId toucher = cfg_.node_of(core);
    const PlacementPolicy interleave = PlacementPolicy::kInterleave;
    NodeId home = pt_.touch(
        addr, toucher,
        ov != nullptr && ov->placement == PlacementOverride::kInterleave
            ? &interleave
            : nullptr);
    const Addr line = addr / cfg_.l1.line_bytes;
    const bool prefetched =
        lat.prefetch_enabled &&
        pf_[c].access(line, static_cast<unsigned>(cfg_.page_bytes /
                                                  cfg_.l1.line_bytes));
    if (ov != nullptr) {
      if (ov->latency == LatencyOverride::kZero) {
        r.latency = 0;
        r.level = MemLevel::kL3;
        r.home = home;
        ++stats.l3_hits;
        return r;
      }
      if (ov->placement == PlacementOverride::kLocal) home = toucher;
      if (ov->latency == LatencyOverride::kNextLevel) {
        if (home == toucher) {
          r.latency += lat.l3;
          r.level = MemLevel::kL3;
          r.home = home;
          ++stats.l3_hits;
          return r;
        }
        home = toucher;
      }
    }
    const bool remote = home != toucher;
    r.home = home;
    r.queue_wait = dram[static_cast<std::size_t>(home)].serve(now);
    r.prefetched = prefetched;
    if (prefetched) {
      r.latency += lat.prefetch_hit + r.queue_wait +
                   (remote ? lat.prefetch_remote_extra : 0);
      ++stats.prefetched;
    } else {
      r.latency += lat.l3 + lat.dram + r.queue_wait +
                   (remote ? lat.remote_extra : 0);
    }
    r.level = remote ? MemLevel::kRemoteDram : MemLevel::kLocalDram;
    ++(remote ? stats.remote_dram : stats.local_dram);
    return r;
  }

  std::vector<RefCache> l1, l2, l3, tlbs;
  std::vector<DramController> dram;
  MemLevelStats stats;

 private:
  MachineConfig cfg_;
  PageTable pt_;
  std::vector<StreamPrefetcher> pf_;
  std::map<Addr, OverrideEntry> patches_;  ///< page -> entry
};

void expect_same_state(const Machine& m, const RefMemory& ref,
                       const std::string& where) {
  SCOPED_TRACE(where);
  const MemorySystem& mem = m.memory();
  const MemLevelStats s = mem.stats();
  EXPECT_EQ(s.l1_hits, ref.stats.l1_hits);
  EXPECT_EQ(s.l2_hits, ref.stats.l2_hits);
  EXPECT_EQ(s.l3_hits, ref.stats.l3_hits);
  EXPECT_EQ(s.local_dram, ref.stats.local_dram);
  EXPECT_EQ(s.remote_dram, ref.stats.remote_dram);
  EXPECT_EQ(s.tlb_misses, ref.stats.tlb_misses);
  EXPECT_EQ(s.prefetched, ref.stats.prefetched);
  const MachineConfig& cfg = m.config();
  for (CoreId c = 0; c < cfg.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    EXPECT_EQ(mem.l1(c).hits(), ref.l1[i].hits) << "core " << c;
    EXPECT_EQ(mem.l1(c).misses(), ref.l1[i].misses) << "core " << c;
    EXPECT_EQ(mem.l2(c).hits(), ref.l2[i].hits) << "core " << c;
    EXPECT_EQ(mem.l2(c).misses(), ref.l2[i].misses) << "core " << c;
    EXPECT_EQ(mem.tlb(c).hits(), ref.tlbs[i].hits) << "core " << c;
    EXPECT_EQ(mem.tlb(c).misses(), ref.tlbs[i].misses) << "core " << c;
  }
  for (int sk = 0; sk < cfg.sockets; ++sk) {
    const auto i = static_cast<std::size_t>(sk);
    EXPECT_EQ(mem.l3(sk).hits(), ref.l3[i].hits) << "socket " << sk;
    EXPECT_EQ(mem.l3(sk).misses(), ref.l3[i].misses) << "socket " << sk;
  }
  for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
    const auto i = static_cast<std::size_t>(n);
    EXPECT_EQ(mem.controller(n).accesses(), ref.dram[i].accesses());
    EXPECT_EQ(mem.controller(n).total_wait(), ref.dram[i].total_wait());
  }
}

// Property: over long mixed streams — same-line repeats, two-page
// alternation (the streamcluster inner loop), three-page rotation (TLB
// entry 3), strides, random addresses, loads and stores, cache flushes,
// and every override kind added and removed mid-stream — Machine::access
// agrees with the reference model on every result field, every clock,
// and every cache's, TLB's and controller's counts.
class MemorySystemReference : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(MemorySystemReference, MatchesListLruModel) {
  const MachineConfig cfg = tiny_machine();  // 2x2 cores, 2-way L1, 4 TLB
  Machine m(cfg);
  RefMemory ref(cfg);
  std::mt19937_64 rng(GetParam());
  const auto pick = [&](std::uint64_t n) { return rng() % n; };

  const Addr region = 0x10000000;
  const std::uint64_t region_pages = 48;
  const auto random_addr = [&] {
    return region + pick(region_pages * cfg.page_bytes) / 8 * 8;
  };
  const OverrideEntry kinds[] = {
      {PlacementOverride::kLocal, LatencyOverride::kNone},
      {PlacementOverride::kInterleave, LatencyOverride::kNone},
      {PlacementOverride::kNone, LatencyOverride::kNextLevel},
      {PlacementOverride::kNone, LatencyOverride::kZero},
      {PlacementOverride::kLocal, LatencyOverride::kNextLevel},
  };

  enum Mode { kRepeat, kTwoPage, kThreePage, kStride, kRandom, kModes };
  Mode mode = kRandom;
  int mode_left = 0;
  CoreId core = 0;
  Addr cursor[3] = {};
  std::size_t turn = 0;
  Addr stride = 8;
  Addr last = random_addr();
  std::vector<Cycles> clock(static_cast<std::size_t>(cfg.num_cores()), 0);
  std::vector<Cycles> ref_clock(clock);

  constexpr int kOps = 120'000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t roll = pick(1000);
    if (roll == 0) {
      m.memory().flush_caches();
      ref.flush();
      continue;
    }
    if (roll < 4) {
      const Addr base = random_addr();
      const std::uint64_t size = 1 + pick(4 * cfg.page_bytes);
      const OverrideEntry e = kinds[pick(std::size(kinds))];
      m.overrides().add_range(base, size, e);
      ref.add_override(base, size, e);
      continue;
    }
    if (roll < 7) {
      const Addr base = random_addr();
      const std::uint64_t size = 1 + pick(6 * cfg.page_bytes);
      m.overrides().remove_range(base, size);
      ref.remove_override(base, size);
      continue;
    }
    if (mode_left-- <= 0) {
      mode = static_cast<Mode>(pick(kModes));
      mode_left = 64 + static_cast<int>(pick(448));
      core = static_cast<CoreId>(pick(static_cast<std::uint64_t>(
          cfg.num_cores())));
      for (Addr& c : cursor) c = random_addr();
      const Addr strides[] = {8, 64, 520, 4096 + 64};
      stride = strides[pick(std::size(strides))];
    }
    Addr addr = 0;
    switch (mode) {
      case kRepeat:  // same line, any word of it
        addr = (last & ~Addr{63}) + pick(8) * 8;
        break;
      case kTwoPage:
      case kThreePage: {
        const std::size_t n = mode == kTwoPage ? 2 : 3;
        Addr& c = cursor[turn++ % n];
        addr = c;
        if (pick(4) == 0) c += 8;
        break;
      }
      case kStride:
        addr = cursor[0];
        cursor[0] += stride;
        if (cursor[0] >= region + region_pages * cfg.page_bytes) {
          cursor[0] = region + pick(cfg.page_bytes);
        }
        break;
      case kRandom:
      case kModes:
        addr = random_addr();
        break;
    }
    last = addr;
    const CoreId c = pick(8) == 0 ? static_cast<CoreId>(pick(
                                        static_cast<std::uint64_t>(
                                            cfg.num_cores())))
                                  : core;
    const auto ci = static_cast<std::size_t>(c);
    const bool store = pick(4) == 0;
    const Cycles issued = clock[ci];
    const AccessResult got = m.access(c, c, 0x400000, addr, 8, store,
                                      clock[ci]);
    const AccessResult want = ref.access(c, addr, store, ref_clock[ci]);
    ref_clock[ci] += want.latency;
    ASSERT_EQ(got.latency, want.latency) << "op " << op << " addr " << addr;
    ASSERT_EQ(got.level, want.level) << "op " << op;
    ASSERT_EQ(got.tlb_miss, want.tlb_miss) << "op " << op;
    ASSERT_EQ(got.prefetched, want.prefetched) << "op " << op;
    ASSERT_EQ(got.home, want.home) << "op " << op;
    ASSERT_EQ(got.queue_wait, want.queue_wait) << "op " << op;
    ASSERT_EQ(clock[ci], issued + got.latency);
    ASSERT_EQ(clock[ci], ref_clock[ci]);
    if (op % 20'000 == 0) expect_same_state(m, ref, "op " + std::to_string(op));
  }
  expect_same_state(m, ref, "end");
  // The stream must actually reach every level and both TLB outcomes.
  const MemLevelStats s = m.memory().stats();
  EXPECT_GT(s.l1_hits, 0u);
  EXPECT_GT(s.l2_hits, 0u);
  EXPECT_GT(s.l3_hits, 0u);
  EXPECT_GT(s.local_dram, 0u);
  EXPECT_GT(s.remote_dram, 0u);
  EXPECT_GT(s.tlb_misses, 0u);
  EXPECT_GT(s.prefetched, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemorySystemReference,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace dcprof::sim
