// A MemProf-style trace recorder: the design the paper argues *against*
// (Section 2.2 / 6.2). Instead of folding samples into compact CCTs, it
// appends one record per sample and one per allocation/free — so its
// size grows linearly with execution length and thread count. Included
// as the implemented comparison baseline for the space-scalability
// ablation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "pmu/pmu.h"
#include "rt/alloc.h"
#include "rt/thread.h"
#include "sim/types.h"

namespace dcprof::core {

/// One traced PMU sample (fixed-size record).
struct TraceSample {
  std::int32_t tid = 0;
  sim::Addr ip = 0;
  sim::Addr eaddr = 0;
  std::uint32_t latency = 0;
  std::uint8_t source = 0;
  std::uint8_t is_store = 0;
};

/// One traced allocation event. Unlike the CCT profiler, a trace must
/// store the *full call path per event* — there is no prefix sharing.
struct TraceAllocEvent {
  std::int32_t tid = 0;
  sim::Addr base = 0;
  std::uint64_t size = 0;  ///< 0 marks a free
  std::vector<sim::Addr> call_path;
};

class TraceRecorder {
 public:
  /// Installs this recorder as the PMU sample handler.
  void attach(pmu::PmuSet& pmu);
  /// Installs allocation/free hooks.
  void attach(rt::Allocator& alloc);

  void record_sample(const pmu::Sample& sample);
  void record_alloc(rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size);
  void record_free(sim::ThreadId tid, sim::Addr base);

  const std::vector<TraceSample>& samples() const { return samples_; }
  const std::vector<TraceAllocEvent>& alloc_events() const {
    return alloc_events_;
  }

  /// Serialized size: the honest apples-to-apples comparison against
  /// ThreadProfile::serialize().size().
  std::uint64_t serialized_bytes() const;
  void write(std::ostream& out) const;

 private:
  std::vector<TraceSample> samples_;
  std::vector<TraceAllocEvent> alloc_events_;
};

}  // namespace dcprof::core
