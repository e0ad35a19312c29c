// Fixed metric vocabulary for data-centric profiles.
#pragma once

#include <array>
#include <cstdint>

#include "pmu/pmu.h"

namespace dcprof::core {

/// Metric slots recorded at CCT nodes.
enum class Metric : std::uint8_t {
  kSamples,     ///< number of PMU samples
  kLatency,     ///< summed access latency (cycles)
  kL1Hits,
  kL2Hits,
  kL3Hits,
  kLocalDram,
  kRemoteDram,  ///< the paper's PM_MRK_DATA_FROM_RMEM-style NUMA metric
  kTlbMiss,
  kLoads,   ///< sampled load channel (v4)
  kStores,  ///< sampled store channel (v4)
  kCount_,
};

inline constexpr std::size_t kNumMetrics =
    static_cast<std::size_t>(Metric::kCount_);

const char* to_string(Metric m);

/// A dense vector of metric values.
struct MetricVec {
  std::array<std::uint64_t, kNumMetrics> v{};

  std::uint64_t& operator[](Metric m) {
    return v[static_cast<std::size_t>(m)];
  }
  std::uint64_t operator[](Metric m) const {
    return v[static_cast<std::size_t>(m)];
  }
  MetricVec& operator+=(const MetricVec& o) {
    for (std::size_t i = 0; i < kNumMetrics; ++i) v[i] += o.v[i];
    return *this;
  }
  bool empty() const {
    for (auto x : v) {
      if (x != 0) return false;
    }
    return true;
  }

  /// Builds the metric increment for one PMU sample.
  static MetricVec from_sample(const pmu::Sample& s) {
    MetricVec m;
    m[Metric::kSamples] = 1;
    if (!s.is_memory) return m;
    m[Metric::kLatency] = s.latency;
    switch (s.source) {
      case sim::MemLevel::kL1: m[Metric::kL1Hits] = 1; break;
      case sim::MemLevel::kL2: m[Metric::kL2Hits] = 1; break;
      case sim::MemLevel::kL3: m[Metric::kL3Hits] = 1; break;
      case sim::MemLevel::kLocalDram: m[Metric::kLocalDram] = 1; break;
      case sim::MemLevel::kRemoteDram: m[Metric::kRemoteDram] = 1; break;
    }
    if (s.tlb_miss) m[Metric::kTlbMiss] = 1;
    m[s.is_store ? Metric::kStores : Metric::kLoads] = 1;
    return m;
  }
};

}  // namespace dcprof::core
