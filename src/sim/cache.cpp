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
      return true;
    }
  }
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
      return true;
    }
  }
  if (size_ < entries_) ++size_;  // else the LRU entry falls off the back
  std::copy_backward(p, p + size_ - 1, p + size_);
  p[0] = key;
  return false;
}

bool Tlb::access(Addr addr, std::uint64_t& view_misses) {
  pair_marks();
  const Addr key = key_of(addr);
  Addr* p = pages_.data();
  Marks* mk = marks_.data();
  unsigned i = 0;
  while (i < size_ && (p[i] & ~kUnquiet) != key) ++i;
  const bool hit = i < size_;
  if (!hit) {
    if (size_ < entries_) {
      ++size_;
    } else {
      // The LRU entry falls off. A view that linked it still holds it,
      // now as its newest unlinked page: it was the view's oldest link.
      const Marks& lru = mk[size_ - 1];
      for (std::uint64_t vs = lru.linked; vs != 0; vs &= vs - 1) {
        std::vector<Addr>& older = views_[std::countr_zero(vs)].older;
        older.insert(older.begin(), lru.key);
      }
    }
    i = size_ - 1;
    mk[i] = Marks{key, 0, 0};
    for (std::size_t v = 0; v < views_.size(); ++v) {
      if (bypassed(views_[v], key)) mk[i].bypass |= std::uint64_t{1} << v;
    }
  }
  const bool quiet_hit = hit && (p[i] & kUnquiet) == 0;
  const Addr stored_key = p[i];
  const Marks marks = mk[i];
  std::copy_backward(p, p + i, p + i + 1);
  std::copy_backward(mk, mk + i, mk + i + 1);
  p[0] = stored_key;
  mk[0] = marks;
  view_misses = quiet_hit ? 0 : step_views();
  return hit;
}

std::uint64_t Tlb::step_views() {
  ++view_steps_;
  Marks& m = marks_[0];
  const std::uint64_t stepped = all_views_ & ~(m.linked | m.bypass);
  std::uint64_t missed = 0;
  for (std::uint64_t vs = stepped; vs != 0; vs &= vs - 1) {
    const auto v = static_cast<unsigned>(std::countr_zero(vs));
    View& view = views_[v];
    const auto it = std::find(view.older.begin(), view.older.end(), m.key);
    if (it != view.older.end()) {
      view.older.erase(it);  // a view hit: the page is linked again
      continue;
    }
    missed |= std::uint64_t{1} << v;
    // A full view evicts its LRU page, and that is an unlinked one: the
    // view links at most the other size_ - 1 entries.
    if (view.held == entries_) {
      view.older.pop_back();
    } else {
      ++view.held;
    }
  }
  m.linked |= stepped;
  pages_[0] = stored(m);
  return missed;
}

void Tlb::add_view(const OverrideMap& overrides) {
  if (views_.size() == kMaxViews) {
    throw std::length_error("a TLB carries at most 64 views");
  }
  if (marks_.empty()) {
    marks_.resize(pages_.size());
    for (unsigned i = 0; i < size_; ++i) marks_[i].key = pages_[i];
  }
  const std::uint64_t bit = std::uint64_t{1} << views_.size();
  for (unsigned i = 0; i < size_; ++i) marks_[i].linked |= bit;
  all_views_ |= bit;
  views_.push_back(View{&overrides, {}, size_});
}

void Tlb::rebase_view(unsigned v) {
  pair_marks();
  View& view = views_[v];
  const std::uint64_t bit = std::uint64_t{1} << v;
  std::vector<Addr> held;
  held.reserve(view.held);
  for (unsigned i = 0; i < size_; ++i) {
    Marks& m = marks_[i];
    if ((m.linked & bit) != 0) held.push_back(m.key);
    m.linked &= ~bit;
    m.bypass = bypassed(view, m.key) ? m.bypass | bit : m.bypass & ~bit;
    pages_[i] = stored(m);
  }
  held.insert(held.end(), view.older.begin(), view.older.end());
  view.older = std::move(held);
}

void Tlb::clear() {
  std::fill(pages_.begin(), pages_.end(), 0);
  std::fill(marks_.begin(), marks_.end(), Marks{});
  for (View& view : views_) {
    view.older.clear();
    view.held = 0;
  }
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
