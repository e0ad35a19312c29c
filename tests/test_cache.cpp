#include "sim/cache.h"

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

namespace dcprof::sim {
namespace {

CacheConfig small_cache() {
  return CacheConfig{1024, 2, 64};  // 8 sets, 2 ways
}

TEST(SetAssocCache, MissesThenHits) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1008));  // same line
}

TEST(SetAssocCache, DistinctLinesMissIndependently) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.access(0x1000));
  EXPECT_FALSE(cache.access(0x1040));  // next line, different set
  EXPECT_TRUE(cache.access(0x1000));
  EXPECT_TRUE(cache.access(0x1040));
}

TEST(SetAssocCache, LruEvictionWithinSet) {
  SetAssocCache cache(small_cache());
  // Set stride = sets * line = 8 * 64 = 512; same set every 512 bytes.
  const Addr a = 0x0;
  const Addr b = 0x200;
  const Addr c = 0x400;
  cache.access(a);
  cache.access(b);   // set now holds {b, a}, a is LRU
  cache.access(c);   // evicts a
  EXPECT_FALSE(cache.contains(a));
  EXPECT_TRUE(cache.contains(b));
  EXPECT_TRUE(cache.contains(c));
}

TEST(SetAssocCache, AccessRefreshesLru) {
  SetAssocCache cache(small_cache());
  const Addr a = 0x0;
  const Addr b = 0x200;
  const Addr c = 0x400;
  cache.access(a);
  cache.access(b);
  cache.access(a);  // a becomes MRU; b is now LRU
  cache.access(c);  // evicts b
  EXPECT_TRUE(cache.contains(a));
  EXPECT_FALSE(cache.contains(b));
}

TEST(SetAssocCache, ContainsDoesNotFill) {
  SetAssocCache cache(small_cache());
  EXPECT_FALSE(cache.contains(0x1000));
  EXPECT_FALSE(cache.access(0x1000));  // still a miss
}

TEST(SetAssocCache, InvalidateRemovesLine) {
  SetAssocCache cache(small_cache());
  cache.access(0x1000);
  cache.invalidate(0x1000);
  EXPECT_FALSE(cache.contains(0x1000));
  cache.invalidate(0x2000);  // invalidating absent line is a no-op
}

TEST(SetAssocCache, ClearDropsEverything) {
  SetAssocCache cache(small_cache());
  cache.access(0x1000);
  cache.access(0x2000);
  cache.clear();
  EXPECT_FALSE(cache.contains(0x1000));
  EXPECT_FALSE(cache.contains(0x2000));
}

TEST(SetAssocCache, RejectsNonPowerOfTwoGeometry) {
  EXPECT_THROW(SetAssocCache(CacheConfig{1000, 2, 64}),
               std::invalid_argument);
  EXPECT_THROW(SetAssocCache(CacheConfig{1024, 2, 48}),
               std::invalid_argument);
}

TEST(SetAssocCache, RejectsTooSmallGeometry) {
  EXPECT_THROW(SetAssocCache(CacheConfig{64, 2, 64}),
               std::invalid_argument);
}

// Property sweep: for any geometry, a working set no larger than the
// cache never misses after the first pass (full associativity within
// sets + LRU guarantees retention for sequential fills).
struct Geometry {
  std::size_t size;
  unsigned assoc;
  unsigned line;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometry, ResidentWorkingSetNeverMissesAgain) {
  const Geometry g = GetParam();
  SetAssocCache cache(CacheConfig{g.size, g.assoc, g.line});
  const std::size_t lines = g.size / g.line;
  for (std::size_t i = 0; i < lines; ++i) {
    cache.access(static_cast<Addr>(i) * g.line);
  }
  for (std::size_t i = 0; i < lines; ++i) {
    EXPECT_TRUE(cache.access(static_cast<Addr>(i) * g.line));
  }
}

TEST_P(CacheGeometry, OversizedWorkingSetThrashes) {
  const Geometry g = GetParam();
  SetAssocCache cache(CacheConfig{g.size, g.assoc, g.line});
  const std::size_t lines = 2 * g.size / g.line;  // 2x capacity
  std::size_t misses = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < lines; ++i) {
      misses += cache.access(static_cast<Addr>(i) * g.line) ? 0 : 1;
    }
  }
  // Sequential sweep over 2x capacity with LRU: every access misses.
  EXPECT_EQ(misses, 2 * lines);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{1024, 2, 64}, Geometry{4096, 4, 64},
                      Geometry{16384, 8, 64}, Geometry{32768, 8, 128},
                      Geometry{65536, 16, 64}, Geometry{4096, 1, 64}));

TEST(Tlb, HitsAfterInstall) {
  Tlb tlb(4, 4096);
  EXPECT_FALSE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1800));  // same page
  EXPECT_TRUE(tlb.access(0x1000));
}

TEST(Tlb, LruEvictionAtCapacity) {
  Tlb tlb(2, 4096);
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.access(0x3000);  // evicts page of 0x1000
  EXPECT_FALSE(tlb.access(0x1000));
}

TEST(Tlb, AccessRefreshesEntry) {
  Tlb tlb(2, 4096);
  tlb.access(0x1000);
  tlb.access(0x2000);
  tlb.access(0x1000);  // refresh
  tlb.access(0x3000);  // evicts 0x2000
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_FALSE(tlb.access(0x2000));
}

TEST(Tlb, ClearForgetsEverything) {
  Tlb tlb(4, 4096);
  tlb.access(0x1000);
  tlb.clear();
  EXPECT_FALSE(tlb.access(0x1000));
}

// A view must miss exactly when a TLB of its own, fed the same stream
// minus the pages its overrides bypass, misses: across views added at any
// point (each a copy of the TLB then), override changes on resident and
// absent pages, clears, and the access_recent fast probe in front of
// every access, as MemorySystem uses it.
TEST(Tlb, ViewsMissLikeTlbsFedTheirFilteredStreams) {
  constexpr std::size_t kPage = 4096;
  const OverrideEntry promote{PlacementOverride::kNone,
                              LatencyOverride::kNextLevel};
  for (const unsigned entries : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("entries " + std::to_string(entries));
    std::mt19937_64 rng(entries);
    const auto pick = [&](std::uint64_t n) { return rng() % n; };
    Tlb tlb(entries, kPage);
    Tlb plain(entries, kPage);  // the same stream, without views
    std::vector<std::unique_ptr<OverrideMap>> maps;
    std::vector<Tlb> refs;  // per view: fed its filtered stream
    std::uint64_t recent_hits = 0;
    for (int op = 0; op < 40'000; ++op) {
      const std::uint64_t roll = pick(1000);
      if (roll < 3 && maps.size() < 6) {
        maps.push_back(std::make_unique<OverrideMap>(kPage));
        tlb.add_view(*maps.back());
        refs.push_back(plain);
        continue;
      }
      if (roll < 60 && !maps.empty()) {
        const auto v = static_cast<unsigned>(pick(maps.size()));
        const Addr base = pick(3 * entries + 2) * kPage;
        const std::uint64_t size = (1 + pick(2)) * kPage;
        if (pick(2) == 0) {
          maps[v]->add_range(base, size, promote);
        } else {
          maps[v]->remove_range(base, size);
        }
        tlb.rebase_view(v);
        continue;
      }
      if (roll < 62) {
        tlb.clear();
        plain.clear();
        for (Tlb& r : refs) r.clear();
        continue;
      }
      const Addr addr = pick(3 * entries + 2) * kPage + pick(kPage);
      std::uint64_t view_misses = 0;
      bool hit = true;
      if (tlb.access_recent(addr)) {
        ++recent_hits;
      } else {
        hit = maps.empty() ? tlb.access(addr) : tlb.access(addr, view_misses);
      }
      ASSERT_EQ(hit, plain.access(addr)) << "op " << op;
      for (std::size_t v = 0; v < maps.size(); ++v) {
        const bool want_miss =
            !bypasses_tlb(maps[v]->lookup(addr)) && !refs[v].access(addr);
        ASSERT_EQ((view_misses >> v) & 1, want_miss ? 1u : 0u)
            << "view " << v << " op " << op;
      }
    }
    EXPECT_EQ(maps.size(), 6u);
    EXPECT_GT(recent_hits, 0u);
    EXPECT_GT(tlb.view_steps(), 0u);
  }
}

TEST(MemLevelNames, AllDistinct) {
  EXPECT_STREQ(to_string(MemLevel::kL1), "L1");
  EXPECT_STREQ(to_string(MemLevel::kRemoteDram), "RemoteDram");
  EXPECT_STRNE(to_string(MemLevel::kL2), to_string(MemLevel::kL3));
}

}  // namespace
}  // namespace dcprof::sim
