#include "sim/cache.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace dcprof::sim {

namespace {
unsigned log2_exact(std::uint64_t v, const char* what) {
  if (v == 0 || (v & (v - 1)) != 0) {
    throw std::invalid_argument(std::string(what) + " must be a power of two");
  }
  return static_cast<unsigned>(std::countr_zero(v));
}
}  // namespace

SetAssocCache::SetAssocCache(const CacheConfig& cfg)
    : line_shift_(log2_exact(cfg.line_bytes, "cache line size")),
      sets_(cfg.size_bytes / (cfg.line_bytes * cfg.associativity)),
      assoc_(cfg.associativity) {
  if (sets_ == 0) throw std::invalid_argument("cache too small for geometry");
  log2_exact(sets_, "cache set count");
  ways_.assign(sets_ * assoc_, 0);
}

bool SetAssocCache::access(Addr addr) {
  Addr* base = &ways_[set_index(addr) * assoc_];
  const Addr key = key_of(addr);
  // MRU first; invalid ways hold 0 and never match.
  for (unsigned i = 0; i < assoc_; ++i) {
    if (base[i] == key) {
      // Move to MRU position.
      std::copy_backward(base, base + i, base + i + 1);
      base[0] = key;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  // Fill: shift everything down one way, insert at MRU; LRU way falls off.
  std::copy_backward(base, base + assoc_ - 1, base + assoc_);
  base[0] = key;
  return false;
}

bool SetAssocCache::contains(Addr addr) const {
  const Addr* base = &ways_[set_index(addr) * assoc_];
  return std::find(base, base + assoc_, key_of(addr)) != base + assoc_;
}

void SetAssocCache::invalidate(Addr addr) {
  Addr* base = &ways_[set_index(addr) * assoc_];
  Addr* way = std::find(base, base + assoc_, key_of(addr));
  if (way != base + assoc_) *way = 0;
}

void SetAssocCache::clear() { std::fill(ways_.begin(), ways_.end(), 0); }

Tlb::Tlb(unsigned entries, std::size_t page_bytes)
    : page_shift_(log2_exact(page_bytes, "page size")), entries_(entries),
      pages_(std::max(entries, 2u), 0) {
  if (entries_ == 0) throw std::invalid_argument("TLB needs >= 1 entry");
}

bool Tlb::access(Addr addr) {
  const Addr key = key_of(addr);
  Addr* p = pages_.data();
  for (unsigned i = 0; i < size_; ++i) {
    if (p[i] == key) {
      std::copy_backward(p, p + i, p + i + 1);
      p[0] = key;
      ++hits_;
      return true;
    }
  }
  ++misses_;
  if (size_ < entries_) ++size_;  // else the LRU entry falls off the back
  std::copy_backward(p, p + size_ - 1, p + size_);
  p[0] = key;
  return false;
}

void Tlb::clear() {
  std::fill(pages_.begin(), pages_.end(), 0);
  size_ = 0;
}

const char* to_string(MemLevel level) {
  switch (level) {
    case MemLevel::kL1: return "L1";
    case MemLevel::kL2: return "L2";
    case MemLevel::kL3: return "L3";
    case MemLevel::kLocalDram: return "LocalDram";
    case MemLevel::kRemoteDram: return "RemoteDram";
  }
  return "?";
}

}  // namespace dcprof::sim
