#include "rt/alloc.h"

#include <algorithm>
#include <limits>
#include <new>

namespace dcprof::rt {

namespace {
// Bookkeeping cost of one allocator call (free-list search etc.).
constexpr std::uint64_t kAllocatorInstrs = 60;
}  // namespace

sim::PlacementPolicy Allocator::resolve(AllocPolicy policy) const {
  switch (policy) {
    case AllocPolicy::kDefault:
      return global_interleave_ ? sim::PlacementPolicy::kInterleave
                                : sim::PlacementPolicy::kFirstTouch;
    case AllocPolicy::kFirstTouch:
      return sim::PlacementPolicy::kFirstTouch;
    case AllocPolicy::kInterleave:
      return sim::PlacementPolicy::kInterleave;
    case AllocPolicy::kOnNode:
      return sim::PlacementPolicy::kFixed;
  }
  return sim::PlacementPolicy::kFirstTouch;
}

void Allocator::touch_pages(ThreadCtx& ctx, sim::Addr base,
                            std::uint64_t size, sim::Addr ip) {
  // Zeroing writes the whole block; we issue one store per page (enough
  // to trigger placement) and charge compute for the rest of the bytes.
  const std::uint64_t page = machine_->config().page_bytes;
  for (sim::Addr a = base; a < base + size; a += page) {
    ctx.store(a, 8, ip);
  }
  ctx.compute(size / 8, ip);
}

sim::Addr Allocator::malloc(ThreadCtx& ctx, std::uint64_t size, sim::Addr ip,
                            AllocPolicy policy, sim::NodeId node) {
  ctx.compute(kAllocatorInstrs, ip);
  const sim::Addr base = machine_->aspace().heap_alloc(size);
  machine_->memory().set_policy(base, size, resolve(policy), node);
  ++allocations_;
  if (hooks_.on_alloc) hooks_.on_alloc(ctx, base, size, ip);
  return base;
}

sim::Addr Allocator::calloc(ThreadCtx& ctx, std::uint64_t count,
                            std::uint64_t elem, sim::Addr ip,
                            AllocPolicy policy, sim::NodeId node) {
  if (elem != 0 && count > std::numeric_limits<std::uint64_t>::max() / elem) {
    throw std::bad_alloc();  // count * elem overflows, as real calloc checks
  }
  const std::uint64_t size = count * elem;
  const sim::Addr base = malloc(ctx, size, ip, policy, node);
  touch_pages(ctx, base, size, ip);
  return base;
}

sim::Addr Allocator::realloc(ThreadCtx& ctx, sim::Addr old_addr,
                             std::uint64_t new_size, sim::Addr ip,
                             AllocPolicy policy) {
  if (old_addr == 0) return malloc(ctx, new_size, ip, policy);
  const auto old_size = machine_->aspace().block_size(old_addr);
  const sim::Addr base = malloc(ctx, new_size, ip, policy);
  if (old_size) {
    const std::uint64_t copied = std::min(*old_size, new_size);
    touch_pages(ctx, base, copied, ip);  // the copy touches the new block
    ctx.compute(copied / 8, ip);
  }
  free(ctx, old_addr);
  return base;
}

void Allocator::free(ThreadCtx& ctx, sim::Addr addr) {
  if (addr == 0) return;
  ctx.compute(kAllocatorInstrs, 0);
  const auto size = machine_->aspace().block_size(addr);
  if (hooks_.on_free && size) hooks_.on_free(ctx, addr, *size);
  const std::uint64_t freed = machine_->aspace().heap_free(addr);
  // Unmap the pages so a reused range is re-placed by its next owner.
  machine_->memory().release_range(addr, freed);
  ++frees_;
}

}  // namespace dcprof::rt
