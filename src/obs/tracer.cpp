#include "obs/tracer.h"

#include <chrono>
#include <cstdio>
#include <ostream>

namespace dcprof::obs {

namespace {

std::uint64_t clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nanoseconds rendered as fractional microseconds (trace_event's unit).
std::string us_from_ns(std::uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu.%03llu",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned long long>(ns % 1000));
  return buf;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

Tracer::Tracer() : epoch_ns_(clock_ns()) {}

Tracer& Tracer::global() {
  static Tracer* tracer = new Tracer;  // immortal (thread caches point in)
  return *tracer;
}

std::uint64_t Tracer::now_ns() const { return clock_ns() - epoch_ns_; }

Tracer::ThreadBuf& Tracer::buf() {
  // Per-(tracer, thread) cache: the fast path is one thread_local read.
  // Keyed by tracer so tests running their own Tracer instances do not
  // poison the global one's cache.
  thread_local Tracer* cached_for = nullptr;
  thread_local ThreadBuf* cached = nullptr;
  if (cached_for == this && cached != nullptr) return *cached;
  std::lock_guard lock(mu_);
  auto tb = std::make_unique<ThreadBuf>();
  tb->track = static_cast<std::uint32_t>(threads_.size());
  tb->ring.resize(capacity_);
  cached = tb.get();
  cached_for = this;
  threads_.push_back(std::move(tb));
  return *cached;
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuf& b = buf();
  std::lock_guard lock(mu_);
  b.name = name;
}

void Tracer::record_complete(const char* name, std::uint64_t ts_ns,
                             std::uint64_t dur_ns, const char* arg_name,
                             std::uint64_t arg_value) {
  record_complete(name, ts_ns, dur_ns,
                  TraceArgs{TraceArg{arg_name, arg_value}});
}

void Tracer::record_complete(const char* name, std::uint64_t ts_ns,
                             std::uint64_t dur_ns, const TraceArgs& args) {
  Event e;
  e.name = name;
  e.args = args;
  e.ts_ns = ts_ns;
  e.dur_ns = dur_ns;
  buf().push(e);
}

void Tracer::record_instant(const char* name, const char* arg_name,
                            std::uint64_t arg_value) {
  Event e;
  e.name = name;
  e.args[0] = TraceArg{arg_name, arg_value};
  e.ts_ns = now_ns();
  e.instant = true;
  buf().push(e);
}

void Tracer::set_capacity_per_thread(std::size_t events) {
  std::lock_guard lock(mu_);
  capacity_ = events == 0 ? 1 : events;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& t : threads_) {
    const std::uint64_t appended =
        t->appended.load(std::memory_order_acquire);
    if (appended > t->ring.size()) dropped += appended - t->ring.size();
  }
  return dropped;
}

std::size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  std::size_t n = 0;
  for (const auto& t : threads_) {
    n += static_cast<std::size_t>(std::min<std::uint64_t>(
        t->appended.load(std::memory_order_acquire), t->ring.size()));
  }
  return n;
}

void Tracer::write_json(std::ostream& out) const {
  std::lock_guard lock(mu_);
  std::string doc = "{\"traceEvents\":[";
  bool first = true;
  const auto emit = [&](const std::string& event) {
    if (!first) doc += ',';
    first = false;
    doc += event;
  };
  for (const auto& t : threads_) {
    if (!t->name.empty()) {
      std::string m = "{\"ph\":\"M\",\"pid\":0,\"tid\":" +
                      std::to_string(t->track) +
                      ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      append_escaped(m, t->name.c_str());
      m += "\"}}";
      emit(m);
    }
    const std::uint64_t appended =
        t->appended.load(std::memory_order_acquire);
    const std::uint64_t kept =
        std::min<std::uint64_t>(appended, t->ring.size());
    for (std::uint64_t i = 0; i < kept; ++i) {
      // Oldest-first: the ring holds the newest `kept` events ending at
      // slot (appended - 1) % size.
      const Event& e =
          t->ring[static_cast<std::size_t>((appended - kept + i) %
                                           t->ring.size())];
      std::string ev = "{\"ph\":\"";
      ev += e.instant ? 'i' : 'X';
      ev += "\",\"pid\":0,\"tid\":" + std::to_string(t->track) +
            ",\"cat\":\"dcprof\",\"name\":\"";
      append_escaped(ev, e.name);
      ev += "\",\"ts\":" + us_from_ns(e.ts_ns);
      if (!e.instant) {
        ev += ",\"dur\":" + us_from_ns(e.dur_ns);
      } else {
        ev += ",\"s\":\"t\"";
      }
      bool any = false;
      for (const TraceArg& a : e.args) {
        if (a.name == nullptr) continue;
        ev += any ? ",\"" : ",\"args\":{\"";
        append_escaped(ev, a.name);
        ev += "\":" + std::to_string(a.value);
        any = true;
      }
      if (any) ev += '}';
      ev += '}';
      emit(ev);
    }
  }
  doc += "],\"displayTimeUnit\":\"ms\"}";
  out << doc;
}

void Tracer::reset() {
  std::lock_guard lock(mu_);
  for (auto& t : threads_) {
    t->appended.store(0, std::memory_order_release);
    if (t->ring.size() != capacity_) {
      t->ring.assign(capacity_, Event{});
    }
  }
  epoch_ns_ = clock_ns();
}

}  // namespace dcprof::obs
