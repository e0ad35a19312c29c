// Self-telemetry metrics registry: named, labeled counters, gauges, and
// histograms describing the profiler's *own* behaviour (the paper's
// Table 1 overhead story, made continuously observable).
//
// Hot-path contract:
//  * A Counter handle has exactly one writing thread. `add` is a relaxed
//    load + store of the handle's private cache-line-padded cell (no
//    lock prefix: the simulator and PMU bump counters per access and per
//    op), so two threads adding through one handle would lose counts.
//    Threads wanting the same series each create their own handle;
//    snapshots sum across cells. Any thread may read (`value`,
//    snapshots) at any time and sees some recent total.
//  * Histogram handles may be written from multiple threads: `record`
//    is relaxed atomic RMWs (a lock-prefixed add, no ordering) on the
//    handle's private cells.
//  * Gauge handles may be shared across threads: `add`/`set` use real
//    atomic RMW (they sit on cold or per-batch paths, e.g. pipeline
//    queue occupancy), and each cell tracks its high-water mark.
//  * Series creation is mutex-guarded (cold); cells are pointer-stable
//    for the registry's lifetime, so a handle may outlive the component
//    that created it and destroyed handles leave their totals behind.
//
// Telemetry never touches profile content: every metric is a side
// counter, so serialized profiles are byte-identical with telemetry on
// or off (tests/test_obs.cpp proves it end to end).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace dcprof::obs {

/// Gates the telemetry that costs more than a counter bump (wall-clock
/// reads feeding latency histograms and the overhead accountant).
/// Default off: the measurement hot path then pays one relaxed load and
/// a predictable branch per gated site.
bool metrics_enabled();
void set_metrics_enabled(bool enabled);

/// Sorted key=value pairs identifying one series of a metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

namespace detail {

/// One counter or gauge value slot. Atomic, so readers on other threads
/// never see a torn value; gauges also take multi-writer RMWs on it.
/// Padded so two handles never false-share.
struct alignas(64) Cell {
  std::atomic<std::uint64_t> value{0};
  std::atomic<std::uint64_t> max{0};  ///< gauges: high-water mark
};

/// Histograms use power-of-two buckets: bucket i counts values v with
/// bit_width(v) == i (i.e. v in [2^(i-1), 2^i)), clamped to the last
/// bucket. 0 lands in bucket 0.
inline constexpr std::size_t kHistBuckets = 40;

struct alignas(64) HistCells {
  std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> count{0};
};

struct Series;

}  // namespace detail

/// Monotonic counter handle (single writer, any reader; move-only).
class Counter {
 public:
  Counter();  ///< bound to a process-wide scratch cell (writes discarded)
  Counter(Counter&&) = default;
  Counter& operator=(Counter&&) = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n) {
    // Single writer: a plain relaxed load + store, no locked RMW.
    cell_->value.store(cell_->value.load(std::memory_order_relaxed) + n,
                       std::memory_order_relaxed);
  }
  void inc() { add(1); }
  std::uint64_t value() const {
    return cell_->value.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Counter(detail::Cell* cell) : cell_(cell) {}
  detail::Cell* cell_;
};

/// Gauge handle (sharable across threads; add/set are atomic RMW).
class Gauge {
 public:
  Gauge();
  Gauge(Gauge&&) = default;
  Gauge& operator=(Gauge&&) = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::uint64_t v) {
    cell_->value.store(v, std::memory_order_relaxed);
    raise_max(v);
  }
  /// Signed adjustment (queue occupancy style). Underflow is the
  /// caller's bug, as with any unsigned counter.
  void add(std::int64_t delta) {
    const std::uint64_t now =
        cell_->value.fetch_add(static_cast<std::uint64_t>(delta),
                               std::memory_order_relaxed) +
        static_cast<std::uint64_t>(delta);
    if (delta > 0) raise_max(now);
  }
  std::uint64_t value() const {
    return cell_->value.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const {
    return cell_->max.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  explicit Gauge(detail::Cell* cell) : cell_(cell) {}
  void raise_max(std::uint64_t v) {
    std::uint64_t cur = cell_->max.load(std::memory_order_relaxed);
    while (v > cur && !cell_->max.compare_exchange_weak(
                          cur, v, std::memory_order_relaxed)) {
    }
  }
  detail::Cell* cell_;
};

/// Power-of-two-bucket histogram handle (multi-writer safe; move-only).
class Histogram {
 public:
  Histogram();
  Histogram(Histogram&&) = default;
  Histogram& operator=(Histogram&&) = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v);
  std::uint64_t count() const {
    return cells_->count.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const {
    return cells_->sum.load(std::memory_order_relaxed);
  }

  /// Bucket index for a value (bit_width clamped to the bucket count).
  static std::size_t bucket_of(std::uint64_t v);
  /// Exclusive upper bound of bucket i (2^i; ~0 for the last bucket).
  static std::uint64_t bucket_limit(std::size_t i);

 private:
  friend class Registry;
  explicit Histogram(detail::HistCells* cells) : cells_(cells) {}
  detail::HistCells* cells_;
};

/// One series' aggregated state at snapshot time.
struct SnapshotEntry {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter/gauge total (gauge: sum of cells)
  std::uint64_t max = 0;    ///< gauges: high-water across cells
  // Histograms only:
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;  ///< (le, n)

  /// "name" or "name{k=v,...}" — the stable series key.
  std::string key() const;
};

/// A deterministic point-in-time view: entries sorted by series key.
struct Snapshot {
  std::vector<SnapshotEntry> entries;

  const SnapshotEntry* find(const std::string& key) const;
  /// Value of a counter/gauge series, 0 if absent.
  std::uint64_t value(const std::string& key) const;
};

/// Renders a snapshot as a stable JSON document:
/// {"counters":{key:n,...},"gauges":{key:{"value":n,"max":m},...},
///  "histograms":{key:{"count":n,"sum":s,"buckets":[[le,n],...]},...}}
std::string to_json(const Snapshot& snap);

class Registry {
 public:
  // Out-of-line: Series is incomplete here.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every dcprof component reports into.
  static Registry& global();

  /// Creates a new single-writer handle on the (name, labels) series.
  /// Repeated calls return distinct cells that sum at snapshot time.
  Counter counter(const std::string& name, Labels labels = {});
  Gauge gauge(const std::string& name, Labels labels = {});
  Histogram histogram(const std::string& name, Labels labels = {});

  Snapshot snapshot() const;

  /// Drops every series (testing only — outstanding handles must not be
  /// used afterwards).
  void reset_for_testing();

 private:
  detail::Series& series(const std::string& name, Labels labels,
                         MetricKind kind);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::Series>> series_;
};

/// Accumulates elapsed wall-clock nanoseconds into a counter, but only
/// when `metrics_enabled()` — the disabled cost is one load + branch.
class ScopedNs {
 public:
  explicit ScopedNs(Counter& ns_counter);
  ~ScopedNs();
  ScopedNs(const ScopedNs&) = delete;
  ScopedNs& operator=(const ScopedNs&) = delete;

 private:
  Counter* counter_;
  std::uint64_t t0_ = 0;
};

}  // namespace dcprof::obs
