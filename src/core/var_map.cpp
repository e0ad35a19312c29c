#include "core/var_map.h"

#include <algorithm>

namespace dcprof::core {

std::shared_ptr<const AllocPath> AllocPathSet::intern(AllocPath path) {
  auto it = paths_.find(path);
  if (it != paths_.end()) return it->second;
  path.pattern_id = path.frames.empty() ? path.alloc_ip : path.frames.back();
  auto ptr = std::make_shared<const AllocPath>(path);
  paths_.emplace(std::move(path), ptr);
  return ptr;
}

void HeapVarMap::insert(sim::Addr base, std::uint64_t size,
                        std::shared_ptr<const AllocPath> path) {
  // Overwriting an existing base updates the mapped HeapBlock in place,
  // so a cached pointer to it stays valid and sees the new extent.
  const std::uint64_t pattern_id = path ? path->pattern_id : 0;
  blocks_[base] = HeapBlock{base, size, std::move(path), pattern_id};
}

std::optional<HeapBlock> HeapVarMap::erase(sim::Addr base) {
  auto it = blocks_.find(base);
  if (it == blocks_.end()) return std::nullopt;
  // Invalidate every cached way that could resolve into the dead block:
  // match by identity and, defensively, by base. A free + realloc of the
  // same base from a different call path must never return the dead
  // variable's AllocPath through a stale cached interval.
  for (auto& slot : mru_) {
    if (slot != nullptr && (slot == &it->second || slot->base == base)) {
      slot = nullptr;
    }
  }
  HeapBlock block = std::move(it->second);
  blocks_.erase(it);
  return block;
}

const HeapBlock* HeapVarMap::find(sim::Addr addr) const {
  if (mru_enabled_) {
    for (std::size_t i = 0; i < kMruWays; ++i) {
      const HeapBlock* b = mru_[i];
      if (b != nullptr && addr >= b->base && addr - b->base < b->size) {
        tm_.mru_hits.inc();
        // Move-to-front keeps the hottest blocks cheapest.
        for (; i > 0; --i) mru_[i] = mru_[i - 1];
        mru_[0] = b;
        return b;
      }
    }
    tm_.tree_probes.inc();
  }
  auto it = blocks_.upper_bound(addr);
  if (it == blocks_.begin()) return nullptr;
  --it;
  const HeapBlock& b = it->second;
  if (addr >= b.base && addr < b.base + b.size) {
    if (mru_enabled_) {
      for (std::size_t i = kMruWays - 1; i > 0; --i) mru_[i] = mru_[i - 1];
      mru_[0] = &b;
    }
    return &b;
  }
  return nullptr;
}

HeapVarMap::Telemetry::Telemetry() {
  obs::Registry& reg = obs::Registry::global();
  mru_hits = reg.counter("varmap.lookups", {{"outcome", "mru_hit"}});
  tree_probes = reg.counter("varmap.lookups", {{"outcome", "tree_probe"}});
}

VarMapStats HeapVarMap::stats() const {
  VarMapStats s;
  s.mru_hits = tm_.mru_hits.value();
  s.mru_misses = tm_.tree_probes.value();
  return s;
}

void HeapVarMap::set_mru_enabled(bool enabled) {
  mru_enabled_ = enabled;
  std::fill(std::begin(mru_), std::end(mru_), nullptr);
}

}  // namespace dcprof::core
