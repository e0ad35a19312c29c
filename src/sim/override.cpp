#include "sim/override.h"

#include <bit>
#include <stdexcept>

namespace dcprof::sim {

const char* to_string(PlacementOverride p) {
  switch (p) {
    case PlacementOverride::kNone: return "none";
    case PlacementOverride::kLocal: return "local";
    case PlacementOverride::kInterleave: return "interleave";
  }
  return "?";
}

const char* to_string(LatencyOverride l) {
  switch (l) {
    case LatencyOverride::kNone: return "none";
    case LatencyOverride::kNextLevel: return "next-level";
    case LatencyOverride::kZero: return "zero";
  }
  return "?";
}

OverrideMap::OverrideMap(std::size_t page_bytes)
    : page_bytes_(page_bytes),
      page_shift_(static_cast<unsigned>(std::countr_zero(page_bytes))) {
  if (!std::has_single_bit(page_bytes)) {
    throw std::invalid_argument("page size must be a power of two");
  }
}

void OverrideMap::add_range(Addr base, std::uint64_t size,
                            OverrideEntry entry) {
  if (size == 0 || entry.none()) return;
  reset_cache();
  Addr cur = base / page_bytes_;
  const Addr last = (base + size - 1) / page_bytes_ + 1;
  while (cur < last) {
    // Skip past any existing range covering `cur` (first-installed wins).
    if (auto it = ranges_.upper_bound(cur); it != ranges_.begin()) {
      if (auto prev = std::prev(it); prev->second.end_page > cur) {
        cur = prev->second.end_page;
        continue;
      }
    }
    const auto next = ranges_.lower_bound(cur);
    const Addr gap_end =
        (next != ranges_.end() && next->first < last) ? next->first : last;
    ranges_.emplace(cur, Range{gap_end, entry});
    cur = gap_end;
  }
}

void OverrideMap::remove_range(Addr base, std::uint64_t size) {
  if (size == 0 || ranges_.empty()) return;
  reset_cache();
  const Addr first = base / page_bytes_;
  const Addr last = (base + size - 1) / page_bytes_ + 1;
  auto it = ranges_.upper_bound(first);
  if (it != ranges_.begin()) --it;
  while (it != ranges_.end() && it->first < last) {
    const Addr s = it->first;
    const Addr e = it->second.end_page;
    const OverrideEntry entry = it->second.entry;
    if (e <= first) {
      ++it;
      continue;
    }
    it = ranges_.erase(it);
    if (s < first) ranges_.emplace(s, Range{first, entry});
    if (e > last) it = ranges_.emplace(last, Range{e, entry}).first;
  }
}

std::uint64_t OverrideMap::num_pages() const {
  std::uint64_t pages = 0;
  for (const auto& [start, range] : ranges_) pages += range.end_page - start;
  return pages;
}

const OverrideEntry* OverrideMap::lookup_miss(Addr page) const {
  const OverrideEntry* entry = nullptr;
  if (auto it = ranges_.upper_bound(page); it != ranges_.begin()) {
    --it;
    if (page < it->second.end_page) entry = &it->second.entry;
  }
  cache_[page % kCacheSlots] = CacheSlot{page + 1, entry};
  return entry;
}

}  // namespace dcprof::sim
