// An OpenMP-like team of virtual threads. Parallel constructs run on the
// calling host thread in one deterministic round-robin schedule: one
// chunk per thread per round, threads in tid order. That interleaving is
// what lets the simulation reproduce shared-L3 and DRAM-controller
// contention between worker threads, and because it is a pure function
// of the construct, simulated cycles and profiles are bit-reproducible.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "rt/thread.h"
#include "sim/machine.h"

namespace dcprof::rt {

/// Non-owning type-erased loop body: `fn(obj, ctx, i)` runs iteration i.
/// (A function-ref, not std::function — no allocation, the body outlives
/// the call by construction.)
struct ForBodyRef {
  void* obj = nullptr;
  void (*fn)(void*, ThreadCtx&, std::int64_t) = nullptr;
  void operator()(ThreadCtx& ctx, std::int64_t i) const { fn(obj, ctx, i); }
};

/// Non-owning type-erased parallel-region body: `fn(obj, ctx)`.
struct RegionBodyRef {
  void* obj = nullptr;
  void (*fn)(void*, ThreadCtx&) = nullptr;
  void operator()(ThreadCtx& ctx) const { fn(obj, ctx); }
};

class Team {
 public:
  /// Creates `nthreads` virtual threads on `machine`, assigned to cores
  /// round-robin (SMT-style oversubscription allowed, as on POWER7).
  Team(sim::Machine& machine, int nthreads);
  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }
  ThreadCtx& thread(int t) { return *threads_[static_cast<std::size_t>(t)]; }
  ThreadCtx& master() { return *threads_[0]; }

  /// Synchronizes all thread clocks to the team maximum (a barrier), and
  /// reports the machine's quietly retired ops to its observer
  /// (sim::Machine::sync_observer), so PMU counts are exact after every
  /// construct.
  void barrier();

  /// Team wall-clock: the maximum thread clock.
  Cycles now() const;

  /// OpenMP-style static-scheduled parallel for over [begin, end).
  /// Each thread owns a contiguous block; execution interleaves one
  /// `chunk`-iteration slice per thread, round-robin, and ends with a
  /// barrier. `body(ThreadCtx&, i)` runs each iteration.
  template <typename Body>
  void parallel_for(std::int64_t begin, std::int64_t end, Body&& body,
                    std::int64_t chunk = 16) {
    using B = std::remove_reference_t<Body>;
    ForBodyRef ref{const_cast<void*>(static_cast<const void*>(&body)),
                   [](void* obj, ThreadCtx& ctx, std::int64_t i) {
                     (*static_cast<B*>(obj))(ctx, i);
                   }};
    run_for(begin, end, chunk, ref);
  }

  /// Runs `body(ThreadCtx&)` once per thread (like an OpenMP parallel
  /// region with thread-id dispatch); threads execute their body to
  /// completion in tid order, then barrier.
  template <typename Body>
  void parallel_region(Body&& body) {
    using B = std::remove_reference_t<Body>;
    RegionBodyRef ref{const_cast<void*>(static_cast<const void*>(&body)),
                      [](void* obj, ThreadCtx& ctx) {
                        (*static_cast<B*>(obj))(ctx);
                      }};
    run_region(ref);
  }

  /// Runs `body` on the master thread only (like `#pragma omp master`
  /// followed by a barrier).
  template <typename Body>
  void single(Body&& body) {
    barrier();
    body(master());
    barrier();
  }

 private:
  void run_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
               ForBodyRef body);
  void run_region(RegionBodyRef body);

  sim::Machine* machine_;
  std::vector<std::unique_ptr<ThreadCtx>> threads_;
};

/// RAII frame pushed on *every* team thread: models workers executing an
/// outlined parallel-region function within the enclosing calling context
/// (so worker samples carry the full call path, as in the paper's GUI).
class TeamScope {
 public:
  TeamScope(Team& team, Addr call_site_ip) : team_(&team) {
    for (int t = 0; t < team_->size(); ++t) {
      team_->thread(t).push_frame(call_site_ip);
    }
  }
  ~TeamScope() {
    for (int t = 0; t < team_->size(); ++t) {
      team_->thread(t).pop_frame();
    }
  }
  TeamScope(const TeamScope&) = delete;
  TeamScope& operator=(const TeamScope&) = delete;

 private:
  Team* team_;
};

}  // namespace dcprof::rt
