#include "rt/team.h"

#include <stdexcept>

namespace dcprof::rt {

namespace {

/// Static block partition of [begin, end) over nt threads: thread t owns
/// [begin + t*per, min(begin + (t+1)*per, end)).
struct Partition {
  std::int64_t per = 0;
  std::int64_t begin = 0;
  std::int64_t end = 0;
  Partition(std::int64_t b, std::int64_t e, std::int64_t nt)
      : per((e - b + nt - 1) / nt), begin(b), end(e) {}
  std::int64_t lo(std::int64_t t) const { return begin + t * per; }
  std::int64_t hi(std::int64_t t) const {
    const std::int64_t h = lo(t) + per;
    const std::int64_t clamped = h < end ? h : end;
    return clamped > lo(t) ? clamped : lo(t);
  }
};

}  // namespace

Team::Team(sim::Machine& machine, int nthreads) : machine_(&machine) {
  if (nthreads <= 0) throw std::invalid_argument("team needs >= 1 thread");
  const int cores = machine.config().num_cores();
  threads_.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    threads_.push_back(
        std::make_unique<ThreadCtx>(machine, t, t % cores));
  }
}

void Team::barrier() {
  Cycles max = 0;
  for (const auto& t : threads_) {
    if (t->clock() > max) max = t->clock();
  }
  for (auto& t : threads_) t->set_clock(max);
  machine_->sync_observer();
}

Cycles Team::now() const {
  Cycles max = 0;
  for (const auto& t : threads_) {
    if (t->clock() > max) max = t->clock();
  }
  return max;
}

// One chunk per thread per round, threads in tid order: this global
// order is the schedule every simulated cycle and profile depends on.
void Team::run_for(std::int64_t begin, std::int64_t end, std::int64_t chunk,
                   ForBodyRef body) {
  barrier();
  const std::int64_t len = end - begin;
  if (len <= 0) return;
  const auto nt = static_cast<std::int64_t>(size());
  const Partition part(begin, end, nt);
  struct Range {
    std::int64_t next;
    std::int64_t end;
  };
  std::vector<Range> ranges;
  ranges.reserve(static_cast<std::size_t>(nt));
  for (std::int64_t t = 0; t < nt; ++t) {
    ranges.push_back(Range{part.lo(t), part.hi(t)});
  }
  bool any = true;
  while (any) {
    any = false;
    for (std::int64_t t = 0; t < nt; ++t) {
      auto& r = ranges[static_cast<std::size_t>(t)];
      if (r.next >= r.end) continue;
      any = true;
      ThreadCtx& ctx = thread(static_cast<int>(t));
      const std::int64_t stop =
          r.next + chunk < r.end ? r.next + chunk : r.end;
      for (std::int64_t i = r.next; i < stop; ++i) body(ctx, i);
      r.next = stop;
    }
  }
  barrier();
}

void Team::run_region(RegionBodyRef body) {
  barrier();
  for (int t = 0; t < size(); ++t) body(thread(t));
  barrier();
}

}  // namespace dcprof::rt
