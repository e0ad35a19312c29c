// Virtual threads: each carries its own clock and a shadow call stack.
// The shadow stack is the ground truth the profiler's "unwinder" walks —
// the moral equivalent of HPCToolkit's on-the-fly binary-analysis unwind.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/machine.h"
#include "sim/types.h"

namespace dcprof::rt {

using sim::Addr;
using sim::Cycles;

class ThreadCtx {
 public:
  ThreadCtx(sim::Machine& machine, sim::ThreadId tid, sim::CoreId core)
      : machine_(&machine), tid_(tid), core_(core) {
    stack_.reserve(64);
  }

  sim::ThreadId tid() const { return tid_; }
  sim::CoreId core() const { return core_; }
  sim::NodeId node() const { return machine_->config().node_of(core_); }
  sim::Machine& machine() { return *machine_; }

  Cycles clock() const { return clock_; }
  void set_clock(Cycles c) { clock_ = c; }

  /// Issues a load of `size` bytes at data address `addr` from code `ip`.
  sim::AccessResult load(Addr addr, std::uint32_t size, Addr ip) {
    return machine_->access(tid_, core_, ip, addr, size, false, clock_);
  }
  /// Issues a store.
  sim::AccessResult store(Addr addr, std::uint32_t size, Addr ip) {
    return machine_->access(tid_, core_, ip, addr, size, true, clock_);
  }
  /// Retires `instrs` non-memory instructions at code `ip`.
  void compute(std::uint64_t instrs, Addr ip) {
    machine_->compute(tid_, core_, instrs, ip, clock_);
  }

  /// Shadow call stack of call-site IPs, outermost first.
  std::span<const Addr> call_stack() const { return stack_; }
  void push_frame(Addr call_site_ip) { stack_.push_back(call_site_ip); }
  void pop_frame() {
    stack_.pop_back();
    if (stack_.size() < stack_low_water_) stack_low_water_ = stack_.size();
  }
  std::size_t stack_depth() const { return stack_.size(); }

  /// Stack-version watermark for trampoline-style sample memoization:
  /// returns how many leading frames are guaranteed unchanged since the
  /// previous call (any deeper frame may have been popped and re-pushed
  /// in between — pushes alone never lower it). Calling it re-arms the
  /// watermark at the current depth.
  std::size_t take_stack_watermark() {
    const std::size_t w = stack_low_water_;
    stack_low_water_ = stack_.size();
    return w;
  }

  /// Reserves `bytes` of this thread's stack segment (a frame-local
  /// buffer); 64-byte aligned, bump-allocated, released with
  /// stack_release. Addresses land in the stack segment, which the
  /// profiler attributes to "stack (thread N)".
  Addr stack_alloc(std::uint64_t bytes) {
    const Addr base = machine_->aspace().stack_base(tid_) + stack_cursor_;
    stack_cursor_ += (bytes + 63) & ~std::uint64_t{63};
    return base;
  }
  /// Pops the most recent `bytes` (callers release in LIFO order).
  void stack_release(std::uint64_t bytes) {
    stack_cursor_ -= (bytes + 63) & ~std::uint64_t{63};
  }

 private:
  sim::Machine* machine_;
  sim::ThreadId tid_;
  sim::CoreId core_;
  Cycles clock_ = 0;
  std::uint64_t stack_cursor_ = 0;
  std::size_t stack_low_water_ = 0;
  std::vector<Addr> stack_;
};

/// RAII frame: constructing pushes a call site onto the shadow stack.
class Scope {
 public:
  Scope(ThreadCtx& ctx, Addr call_site_ip) : ctx_(&ctx) {
    ctx_->push_frame(call_site_ip);
  }
  ~Scope() { ctx_->pop_frame(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ThreadCtx* ctx_;
};

}  // namespace dcprof::rt
