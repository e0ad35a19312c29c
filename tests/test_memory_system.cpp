#include "sim/memory_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
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
  const auto miss = mem.access(0, 0, 0x100000, false, 0);
  EXPECT_TRUE(miss.level == MemLevel::kLocalDram ||
              miss.level == MemLevel::kRemoteDram);
  const auto hit = mem.access(0, 0, 0x100000, false, 100);
  EXPECT_EQ(hit.level, MemLevel::kL1);
  EXPECT_LT(hit.latency, miss.latency);
}

TEST(MemorySystem, L2HitAfterL1Eviction) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  mem.access(0, 0, 0x100000, false, 0);
  // Evict from L1 (1 KB, 2-way, 8 sets): fill the matching set.
  mem.access(0, 0, 0x100000 + 512, false, 0);
  mem.access(0, 0, 0x100000 + 1024, false, 0);
  const auto r = mem.access(0, 0, 0x100000, false, 0);
  EXPECT_EQ(r.level, MemLevel::kL2);
}

TEST(MemorySystem, L3SharedWithinSocketOnly) {
  MemorySystem mem(tiny_machine());
  mem.access(0, 0, 0x100000, false, 0);  // core 0 (socket 0) fills L3[0]
  // Core 1 is on socket 0: its first access finds the line in L3.
  const auto same_socket = mem.access(1, 1, 0x100000, false, 0);
  EXPECT_EQ(same_socket.level, MemLevel::kL3);
  // Core 2 is on socket 1: it must go to DRAM.
  const auto other_socket = mem.access(2, 2, 0x100000, false, 0);
  EXPECT_TRUE(other_socket.level == MemLevel::kLocalDram ||
              other_socket.level == MemLevel::kRemoteDram);
}

TEST(MemorySystem, LocalVersusRemoteByFirstTouch) {
  MemorySystem mem(tiny_machine());
  // Core 0 (node 0) touches the page first: home = node 0.
  const auto first = mem.access(0, 0, 0x200000, false, 0);
  EXPECT_EQ(first.level, MemLevel::kLocalDram);
  EXPECT_EQ(first.home, 0);
  // Core 2 (node 1) misses everywhere: remote fill.
  const auto remote = mem.access(2, 2, 0x200000, false, 0);
  EXPECT_EQ(remote.level, MemLevel::kRemoteDram);
  EXPECT_GT(remote.latency, first.latency - first.queue_wait);
}

TEST(MemorySystem, TlbMissAddsWalkLatency) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  const auto first = mem.access(0, 0, 0x300000, false, 0);
  EXPECT_TRUE(first.tlb_miss);
  const auto second = mem.access(0, 0, 0x300000, false, 0);
  EXPECT_FALSE(second.tlb_miss);
  EXPECT_EQ(mem.stats().tlb_misses, 1u);
}

TEST(MemorySystem, SequentialStreamGetsPrefetched) {
  MemorySystem mem(tiny_machine());
  // Two sequential line fills arm a stream; the third is prefetched.
  const auto a = mem.access(0, 0, 0x400040, false, 0);
  const auto b = mem.access(0, 0, 0x400080, false, 0);
  const auto c = mem.access(0, 0, 0x4000c0, false, 0);
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
        mem.access(0, 0, 0x500000 + static_cast<Addr>(i) * 4096, false, 0);
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
    const auto r = mem.access(0, 0, a, false, 0);
    if (a == page + cfg.page_bytes) boundary_prefetched = r.prefetched;
  }
  EXPECT_FALSE(boundary_prefetched);
}

TEST(MemorySystem, StoreHitsAreCheaperThanLoadHits) {
  const MachineConfig cfg = tiny_machine();
  MemorySystem mem(cfg);
  mem.access(0, 0, 0x700000, false, 0);
  const auto load = mem.access(0, 0, 0x700000, false, 0);
  const auto store = mem.access(0, 0, 0x700000, true, 0);
  EXPECT_EQ(load.latency, cfg.lat.l1);
  EXPECT_EQ(store.latency, cfg.lat.store_hit);
}

TEST(MemorySystem, FlushCachesKeepsPlacement) {
  MemorySystem mem(tiny_machine());
  mem.access(0, 0, 0x800000, false, 0);
  mem.flush_caches();
  const auto r = mem.access(2, 2, 0x800000, false, 0);
  // Page still belongs to node 0 => remote for core 2.
  EXPECT_EQ(r.level, MemLevel::kRemoteDram);
}

TEST(MemorySystem, StatsCountEachLevel) {
  MemorySystem mem(tiny_machine());
  mem.access(0, 0, 0x900000, false, 0);  // DRAM
  mem.access(0, 0, 0x900000, false, 0);  // L1
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
      return true;
    }
    set.push_front(line);
    if (set.size() > ways_) set.pop_back();
    return false;
  }
  void clear() {
    for (auto& set : sets_) set.clear();
  }

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
// every level count and every controller's counts.
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
      m.memory().add_override(MemorySystem::kPrimary, base, size, e);
      ref.add_override(base, size, e);
      continue;
    }
    if (roll < 7) {
      const Addr base = random_addr();
      const std::uint64_t size = 1 + pick(6 * cfg.page_bytes);
      m.memory().remove_override(MemorySystem::kPrimary, base, size);
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

// --- Timing variants ---------------------------------------------------
//
// A machine with K timing variants must time each variant exactly as a
// separate machine running that variant's overrides as its own: same
// per-thread clocks after every barrier, same DRAM controller totals.
// The stream mixes several threads (more than cores, so offsets are per
// thread, not per core), compute blocks, every override kind added and
// removed mid-stream, interleave and fixed placement regions that share
// the interleave cursor, frees that release pages, and cache flushes.

/// One variant: what it owns and the override entries it draws from.
struct VariantCase {
  VariantOwnership own;
  std::vector<OverrideEntry> kinds;
};

std::vector<VariantCase> variant_cases(bool with_tlb_owners) {
  using P = PlacementOverride;
  using L = LatencyOverride;
  std::vector<VariantCase> cases = {
      {{false, false}, {}},  // no overrides: times exactly like the primary
      {{false, false}, {{P::kLocal, L::kNone}}},
      {{false, true}, {{P::kInterleave, L::kNone}, {P::kLocal, L::kNone}}},
  };
  if (with_tlb_owners) {
    cases.push_back({{true, false}, {{P::kNone, L::kNextLevel}}});
    cases.push_back({{true, false}, {{P::kNone, L::kZero}}});
    cases.push_back({{true, false}, {{P::kNone, L::kNextLevel}}});
    cases.push_back(
        {{true, false}, {{P::kLocal, L::kNextLevel}, {P::kNone, L::kZero}}});
    cases.push_back({{true, true},
                     {{P::kInterleave, L::kNone},
                      {P::kNone, L::kNextLevel},
                      {P::kInterleave, L::kZero},
                      {P::kLocal, L::kNone}}});
  }
  return cases;
}

class MemorySystemVariants
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(MemorySystemVariants, TimeLikeSeparateMachines) {
  const auto [seed, with_tlb_owners] = GetParam();
  MachineConfig cfg = tiny_machine();
  cfg.numa_nodes_per_socket = 2;  // 4 nodes, 4 controllers per machine
  const std::vector<VariantCase> cases = variant_cases(with_tlb_owners);
  constexpr int kThreads = 6;
  const auto core_of = [&](int t) {
    return static_cast<CoreId>(t % cfg.num_cores());
  };

  Machine m(cfg);
  std::vector<std::unique_ptr<Machine>> refs;
  for (const VariantCase& c : cases) {
    m.memory().add_variant(kThreads, c.own);
    refs.push_back(std::make_unique<Machine>(cfg));
  }
  Machine plain(cfg);  // the primary must time as if no variant existed

  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return rng() % n; };
  const Addr region = 0x10000000;
  const std::uint64_t region_pages = 40;
  const auto random_addr = [&] {
    return region + pick(region_pages * cfg.page_bytes) / 8 * 8;
  };

  std::vector<Cycles> clock(kThreads, 0);
  std::vector<Cycles> plain_clock(clock);
  std::vector<std::vector<Cycles>> ref_clock(refs.size(), clock);
  const auto barrier = [&] {
    const Cycles max = *std::max_element(clock.begin(), clock.end());
    m.memory().sync_variant_clocks(clock, max);
    std::fill(clock.begin(), clock.end(), max);
    const auto level = [](std::vector<Cycles>& c) {
      std::fill(c.begin(), c.end(), *std::max_element(c.begin(), c.end()));
    };
    level(plain_clock);
    for (auto& c : ref_clock) level(c);
  };
  const auto expect_same_timing = [&](int op) {
    ASSERT_EQ(clock, plain_clock) << "primary, op " << op;
    for (std::size_t k = 0; k < refs.size(); ++k) {
      const int v = static_cast<int>(k);
      for (int t = 0; t < kThreads; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        ASSERT_EQ(m.memory().variant_clock(v, t, clock[ti]), ref_clock[k][ti])
            << "variant " << k << " thread " << t << " op " << op;
      }
      for (NodeId n = 0; n < cfg.num_nodes(); ++n) {
        const DramController& got = m.memory().controller(n, v);
        const DramController& want = refs[k]->memory().controller(n);
        ASSERT_EQ(got.accesses(), want.accesses())
            << "variant " << k << " node " << n << " op " << op;
        ASSERT_EQ(got.total_wait(), want.total_wait())
            << "variant " << k << " node " << n << " op " << op;
      }
    }
  };

  // A TLB owner's latency override laid over a page its TLBs hold (the
  // last one a core touched), and removed a few accesses later, while
  // the 4-entry TLBs still hold it.
  struct Resident {
    std::size_t k = 0;
    Addr base = 0;
    std::uint64_t size = 0;
    int accesses_left = 0;  ///< 0: no such override in place
  };
  Resident resident;
  std::vector<Addr> last_addr(static_cast<std::size_t>(cfg.num_cores()), 0);
  std::vector<std::size_t> tlb_owners;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    if (cases[k].own.tlb) tlb_owners.push_back(k);
  }

  int thread = 0;
  int mode_left = 0;
  Addr cursor = region;
  Addr stride = 64;
  constexpr int kOps = 60'000;
  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t roll = pick(1000);
    if (roll >= 990) {
      if (tlb_owners.empty() || resident.accesses_left > 0) continue;
      const std::size_t k = tlb_owners[pick(tlb_owners.size())];
      const Addr last = last_addr[pick(last_addr.size())];
      if (last == 0) continue;
      std::vector<OverrideEntry> latency;
      for (const OverrideEntry& e : cases[k].kinds) {
        if (e.latency != LatencyOverride::kNone) latency.push_back(e);
      }
      resident = Resident{k, last / cfg.page_bytes * cfg.page_bytes,
                          (1 + pick(2)) * cfg.page_bytes,
                          1 + static_cast<int>(pick(3))};
      const OverrideEntry e = latency[pick(latency.size())];
      m.memory().add_override(static_cast<int>(k), resident.base,
                              resident.size, e);
      refs[k]->memory().add_override(MemorySystem::kPrimary, resident.base,
                                     resident.size, e);
      continue;
    }
    if (roll < 2) {
      m.memory().flush_caches();
      plain.memory().flush_caches();
      for (auto& r : refs) r->memory().flush_caches();
      continue;
    }
    if (roll < 8) {  // a variant patches a range
      const auto k = static_cast<std::size_t>(pick(cases.size()));
      if (cases[k].kinds.empty()) continue;
      const Addr base = random_addr();
      const std::uint64_t size = 1 + pick(4 * cfg.page_bytes);
      const OverrideEntry e = cases[k].kinds[pick(cases[k].kinds.size())];
      m.memory().add_override(static_cast<int>(k), base, size, e);
      refs[k]->memory().add_override(MemorySystem::kPrimary, base, size, e);
      continue;
    }
    if (roll < 11) {  // ... and drops one
      const auto k = static_cast<std::size_t>(pick(cases.size()));
      const Addr base = random_addr();
      const std::uint64_t size = 1 + pick(6 * cfg.page_bytes);
      m.memory().remove_override(static_cast<int>(k), base, size);
      refs[k]->memory().remove_override(MemorySystem::kPrimary, base, size);
      continue;
    }
    if (roll < 15) {  // the allocator declares a placement region
      const Addr base = region + pick(region_pages) * cfg.page_bytes;
      const std::uint64_t size = (1 + pick(6)) * cfg.page_bytes;
      const PlacementPolicy policies[] = {PlacementPolicy::kInterleave,
                                          PlacementPolicy::kFirstTouch,
                                          PlacementPolicy::kFixed};
      const PlacementPolicy policy = policies[pick(std::size(policies))];
      const NodeId node = policy == PlacementPolicy::kFixed
                              ? static_cast<NodeId>(pick(4))
                              : kNoNode;
      m.memory().set_policy(base, size, policy, node);
      plain.memory().set_policy(base, size, policy, node);
      for (auto& r : refs) r->memory().set_policy(base, size, policy, node);
      continue;
    }
    if (roll < 18) {  // ... and frees a block, unmapping its pages
      const Addr base = region + pick(region_pages) * cfg.page_bytes;
      const std::uint64_t size = (1 + pick(6)) * cfg.page_bytes;
      m.memory().release_range(base, size);
      plain.memory().release_range(base, size);
      for (auto& r : refs) r->memory().release_range(base, size);
      continue;
    }
    if (roll < 26) {
      barrier();
      expect_same_timing(op);
      if (::testing::Test::HasFatalFailure()) return;
      continue;
    }
    if (mode_left-- <= 0) {
      mode_left = 32 + static_cast<int>(pick(256));
      thread = static_cast<int>(pick(kThreads));
      cursor = random_addr();
      const Addr strides[] = {0, 8, 64, 4096 + 64};
      stride = strides[pick(std::size(strides))];
    }
    const int t = pick(8) == 0 ? static_cast<int>(pick(kThreads)) : thread;
    const auto ti = static_cast<std::size_t>(t);
    const CoreId core = core_of(t);
    if (roll < 300) {
      const std::uint64_t instrs = 1 + pick(40);
      m.compute(t, core, instrs, 0x400000, clock[ti]);
      plain.compute(t, core, instrs, 0x400000, plain_clock[ti]);
      for (std::size_t k = 0; k < refs.size(); ++k) {
        refs[k]->compute(t, core, instrs, 0x400000, ref_clock[k][ti]);
      }
      continue;
    }
    Addr addr = pick(4) == 0 ? random_addr() : cursor;
    cursor += stride;
    if (cursor >= region + region_pages * cfg.page_bytes) cursor = region;
    const bool store = pick(4) == 0;
    m.access(t, core, 0x400000, addr, 8, store, clock[ti]);
    plain.access(t, core, 0x400000, addr, 8, store, plain_clock[ti]);
    for (std::size_t k = 0; k < refs.size(); ++k) {
      refs[k]->access(t, core, 0x400000, addr, 8, store, ref_clock[k][ti]);
    }
    last_addr[static_cast<std::size_t>(core)] = addr;
    if (resident.accesses_left > 0 && --resident.accesses_left == 0) {
      m.memory().remove_override(static_cast<int>(resident.k), resident.base,
                                 resident.size);
      refs[resident.k]->memory().remove_override(
          MemorySystem::kPrimary, resident.base, resident.size);
    }
  }
  barrier();
  expect_same_timing(kOps);
  // The stream must make the variants' timing actually differ.
  std::size_t differing = 0;
  for (std::size_t k = 0; k < refs.size(); ++k) {
    differing += ref_clock[k] != clock ? 1 : 0;
  }
  EXPECT_GE(differing, cases.size() - 2);
  const MemLevelStats s = m.memory().stats();
  EXPECT_GT(s.local_dram, 0u);
  EXPECT_GT(s.remote_dram, 0u);
  EXPECT_GT(s.tlb_misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, MemorySystemVariants,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_tlb_owners" : "_placement_only");
    });

// A TLB-owning variant shares the primary's TLB entries, so repeated L1
// MRU hits on a page it does not bypass stay on the inline path — also
// after its overrides change, once an access has stepped its view again.
TEST(MemorySystemVariants, TlbOwnerKeepsTheInlinePath) {
  MemorySystem mem(tiny_machine());
  const int placement = mem.add_variant(1, {});
  const int latency = mem.add_variant(1, {true, false});
  const OverrideEntry promote{PlacementOverride::kNone,
                              LatencyOverride::kNextLevel};
  const OverrideEntry local{PlacementOverride::kLocal,
                            LatencyOverride::kNone};
  mem.add_override(placement, 0x300000, 64, local);
  const Addr page = 0x100000;
  const auto expect_inline = [&](const char* when) {
    for (Addr a = page; a < page + 64; a += 8) {
      AccessResult r;
      ASSERT_TRUE(mem.access_mru(0, a, false, r)) << when << " " << a;
      EXPECT_EQ(r.level, MemLevel::kL1);
    }
  };
  Cycles now = 0;
  now += mem.access(0, 0, page, false, now).latency;
  expect_inline("after the fill");
  mem.add_override(latency, 0x200000, 64, promote);
  now += mem.access(0, 0, page, false, now).latency;
  expect_inline("after the override was added");
  mem.remove_override(latency, 0x200000, 64);
  now += mem.access(0, 0, page, false, now).latency;
  expect_inline("after the override was removed");
  // Nothing either variant changes applies to the page.
  EXPECT_EQ(mem.variant_clock(placement, 0, now), now);
  EXPECT_EQ(mem.variant_clock(latency, 0, now), now);
}

TEST(MemorySystemVariants, AtMost64OwnTlbs) {
  MemorySystem mem(tiny_machine());
  for (unsigned v = 0; v < Tlb::kMaxViews; ++v) {
    mem.add_variant(1, {true, false});
  }
  EXPECT_THROW(mem.add_variant(1, {true, false}), std::length_error);
  EXPECT_NO_THROW(mem.add_variant(1, {false, true}));
}

TEST(MemorySystemVariants, RejectOverridesTheyCannotTime) {
  MemorySystem mem(tiny_machine());
  const int placement = mem.add_variant(1, {});
  const int latency = mem.add_variant(1, {true, false});
  const OverrideEntry promote{PlacementOverride::kNone,
                              LatencyOverride::kNextLevel};
  const OverrideEntry interleave{PlacementOverride::kInterleave,
                                 LatencyOverride::kNone};
  EXPECT_THROW(mem.add_override(placement, 0x1000, 64, promote),
               std::logic_error);
  EXPECT_THROW(mem.add_override(latency, 0x1000, 64, interleave),
               std::logic_error);
  EXPECT_NO_THROW(mem.add_override(latency, 0x1000, 64, promote));
  // The primary is what every variant shares: it stays unpatched.
  EXPECT_THROW(mem.add_override(MemorySystem::kPrimary, 0x1000, 64, promote),
               std::logic_error);
  MemorySystem patched(tiny_machine());
  patched.add_override(MemorySystem::kPrimary, 0x1000, 64, promote);
  EXPECT_THROW(patched.add_variant(1, {}), std::logic_error);
}

}  // namespace
}  // namespace dcprof::sim
