// Ring-buffered runtime event tracing (LTTng-style: bounded memory,
// per-thread buffers, no locks on the record path), emitted as Chrome
// `trace_event` JSON loadable in Perfetto / chrome://tracing.
//
//   OBS_SPAN("analyze.stream");             // RAII complete ("X") event
//   OBS_SPAN_V("analyze.shard", "shard", w) // span with one u64 arg
//   Tracer::global().record_complete(name, ts, dur, TraceArgs{...})
//                                           // a span with up to 4 u64 args
//   OBS_INSTANT("analyze.heartbeat");       // instant ("i") event
//
// Cost model:
//  * disabled (default): one relaxed load + branch per site — no clock
//    read, no buffer write. Safe inside the per-sample hot path.
//  * enabled: two steady_clock reads plus one fixed-size ring slot per
//    span. Rings wrap (newest wins) so tracing never allocates after a
//    thread's first event and never grows unbounded; wrapped-over
//    events are counted in `dropped()`.
//
// Event names must be string literals (or otherwise outlive the
// tracer) — the ring stores the pointer, not a copy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dcprof::obs {

/// One named integer argument of a trace event.
struct TraceArg {
  const char* name = nullptr;  ///< null marks an unused slot
  std::uint64_t value = 0;
};
/// The arguments one event carries (names must outlive the tracer).
using TraceArgs = std::array<TraceArg, 4>;

class Tracer {
 public:
  /// The process-wide tracer the OBS_* macros record into.
  static Tracer& global();

  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Names the calling thread's track in the emitted trace (shown by
  /// Perfetto instead of the numeric tid).
  void set_thread_name(const std::string& name);

  /// Records a complete span on the calling thread's track.
  void record_complete(const char* name, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, const char* arg_name = nullptr,
                       std::uint64_t arg_value = 0);
  void record_complete(const char* name, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, const TraceArgs& args);
  /// Records an instant event at now on the calling thread's track.
  void record_instant(const char* name, const char* arg_name = nullptr,
                      std::uint64_t arg_value = 0);

  /// Nanoseconds since this tracer's epoch (construction or reset).
  std::uint64_t now_ns() const;

  /// Ring capacity for threads that have not recorded yet (existing
  /// per-thread rings keep their size).
  void set_capacity_per_thread(std::size_t events);

  /// Events overwritten by ring wraparound, across all threads.
  std::uint64_t dropped() const;
  /// Events currently held, across all threads.
  std::size_t size() const;

  /// Writes the whole trace as Chrome trace_event JSON (object form:
  /// {"traceEvents":[...]}). Call after the traced work quiesces —
  /// concurrent recording into a buffer being written is not synchronized.
  void write_json(std::ostream& out) const;

  /// Clears all buffers and re-arms the epoch. Threads keep their track
  /// registration. Testing / between-run use.
  void reset();

 private:
  struct Event {
    const char* name = nullptr;
    TraceArgs args{};
    std::uint64_t ts_ns = 0;
    std::uint64_t dur_ns = 0;  ///< 0 + kInstant phase = instant
    bool instant = false;
  };

  struct ThreadBuf {
    std::vector<Event> ring;
    /// Total ever appended; the ring keeps the newest. Written lock-free
    /// by the owning thread, read under mu_ by dropped()/size()/
    /// write_json — atomic so cross-thread reads of the counter are
    /// well-defined (the release store publishes the slot write).
    std::atomic<std::uint64_t> appended{0};
    std::uint32_t track = 0;
    std::string name;
    void push(const Event& e) {
      const std::uint64_t n = appended.load(std::memory_order_relaxed);
      ring[static_cast<std::size_t>(n % ring.size())] = e;
      appended.store(n + 1, std::memory_order_release);
    }
  };

  ThreadBuf& buf();

  static std::atomic<bool> enabled_;

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ThreadBuf>> threads_;
  std::size_t capacity_ = 1 << 16;  ///< events per thread (~6 MB)
  std::uint64_t epoch_ns_ = 0;
};

/// RAII complete-span recorder; zero work when tracing is disabled at
/// construction (a span started while enabled still records if tracing
/// is disabled mid-flight, keeping begin/end pairing trivial).
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, const char* arg_name = nullptr,
                     std::uint64_t arg_value = 0) {
    if (Tracer::enabled()) {
      name_ = name;
      arg_name_ = arg_name;
      arg_value_ = arg_value;
      t0_ = Tracer::global().now_ns();
    }
  }
  ~SpanGuard() {
    if (name_ != nullptr) {
      Tracer& t = Tracer::global();
      t.record_complete(name_, t0_, t.now_ns() - t0_, arg_name_, arg_value_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* name_ = nullptr;
  const char* arg_name_ = nullptr;
  std::uint64_t arg_value_ = 0;
  std::uint64_t t0_ = 0;
};

#define DCPROF_OBS_CAT2(a, b) a##b
#define DCPROF_OBS_CAT(a, b) DCPROF_OBS_CAT2(a, b)

/// Scoped span covering the rest of the enclosing block.
#define OBS_SPAN(name) \
  ::dcprof::obs::SpanGuard DCPROF_OBS_CAT(obs_span_, __LINE__)(name)
/// Scoped span with one named integer argument.
#define OBS_SPAN_V(name, arg_name, arg_value)                       \
  ::dcprof::obs::SpanGuard DCPROF_OBS_CAT(obs_span_, __LINE__)(     \
      name, arg_name, static_cast<std::uint64_t>(arg_value))
/// Point-in-time event.
#define OBS_INSTANT(name)                     \
  do {                                        \
    if (::dcprof::obs::Tracer::enabled()) {   \
      ::dcprof::obs::Tracer::global().record_instant(name); \
    }                                         \
  } while (0)

}  // namespace dcprof::obs
