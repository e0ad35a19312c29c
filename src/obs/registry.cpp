#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>

namespace dcprof::obs {

namespace {

std::atomic<bool> g_metrics_enabled{false};

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Default-constructed handles write here; the values are never read, so
/// concurrent writers losing each other's counts is harmless.
detail::Cell& scratch_cell() {
  static detail::Cell cell;
  return cell;
}

detail::HistCells& scratch_hist() {
  static detail::HistCells cells;
  return cells;
}

std::string series_key(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  std::string key = name;
  key += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) key += ',';
    key += labels[i].first;
    key += '=';
    key += labels[i].second;
  }
  key += '}';
  return key;
}

void append_json_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

bool metrics_enabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void set_metrics_enabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace detail {

/// One (name, labels, kind) series and every cell handed out for it.
/// Deques keep cells pointer-stable as handles are created.
struct Series {
  std::string name;
  Labels labels;
  MetricKind kind;
  std::deque<Cell> cells;
  std::deque<HistCells> hists;
};

}  // namespace detail

Counter::Counter() : cell_(&scratch_cell()) {}
Gauge::Gauge() : cell_(&scratch_cell()) {}
Histogram::Histogram() : cells_(&scratch_hist()) {}

std::size_t Histogram::bucket_of(std::uint64_t v) {
  return std::min<std::size_t>(std::bit_width(v),
                               detail::kHistBuckets - 1);
}

std::uint64_t Histogram::bucket_limit(std::size_t i) {
  if (i >= detail::kHistBuckets - 1) return ~0ull;
  return 1ull << i;
}

void Histogram::record(std::uint64_t v) {
  // Relaxed RMWs: exact under concurrent writers (see the hot-path
  // contract in registry.h).
  cells_->buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
  cells_->sum.fetch_add(v, std::memory_order_relaxed);
  cells_->count.fetch_add(1, std::memory_order_relaxed);
}

std::string SnapshotEntry::key() const { return series_key(name, labels); }

const SnapshotEntry* Snapshot::find(const std::string& key) const {
  for (const auto& e : entries) {
    if (e.key() == key) return &e;
  }
  return nullptr;
}

std::uint64_t Snapshot::value(const std::string& key) const {
  const SnapshotEntry* e = find(key);
  return e == nullptr ? 0 : e->value;
}

Registry::Registry() = default;
Registry::~Registry() = default;

Registry& Registry::global() {
  static Registry* reg = new Registry;  // immortal: handles may outlive exit
  return *reg;
}

detail::Series& Registry::series(const std::string& name, Labels labels,
                                 MetricKind kind) {
  std::sort(labels.begin(), labels.end());
  const std::string key = series_key(name, labels);
  std::lock_guard lock(mu_);
  auto it = series_.find(key);
  if (it == series_.end()) {
    auto s = std::make_unique<detail::Series>();
    s->name = name;
    s->labels = std::move(labels);
    s->kind = kind;
    it = series_.emplace(key, std::move(s)).first;
  }
  return *it->second;
}

Counter Registry::counter(const std::string& name, Labels labels) {
  detail::Series& s = series(name, std::move(labels), MetricKind::kCounter);
  std::lock_guard lock(mu_);
  return Counter(&s.cells.emplace_back());
}

Gauge Registry::gauge(const std::string& name, Labels labels) {
  detail::Series& s = series(name, std::move(labels), MetricKind::kGauge);
  std::lock_guard lock(mu_);
  return Gauge(&s.cells.emplace_back());
}

Histogram Registry::histogram(const std::string& name, Labels labels) {
  detail::Series& s =
      series(name, std::move(labels), MetricKind::kHistogram);
  std::lock_guard lock(mu_);
  return Histogram(&s.hists.emplace_back());
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard lock(mu_);
  for (const auto& [key, s] : series_) {
    SnapshotEntry e;
    e.name = s->name;
    e.labels = s->labels;
    e.kind = s->kind;
    if (s->kind == MetricKind::kHistogram) {
      std::array<std::uint64_t, detail::kHistBuckets> buckets{};
      for (const auto& h : s->hists) {
        for (std::size_t i = 0; i < buckets.size(); ++i) {
          buckets[i] += h.buckets[i].load(std::memory_order_relaxed);
        }
        e.sum += h.sum.load(std::memory_order_relaxed);
        e.count += h.count.load(std::memory_order_relaxed);
      }
      for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] != 0) {
          e.buckets.emplace_back(Histogram::bucket_limit(i), buckets[i]);
        }
      }
    } else {
      for (const auto& c : s->cells) {
        e.value += c.value.load(std::memory_order_relaxed);
        e.max = std::max(e.max, c.max.load(std::memory_order_relaxed));
      }
    }
    snap.entries.push_back(std::move(e));
  }
  // series_ is a std::map keyed by the series key, so entries are
  // already deterministically sorted.
  return snap;
}

void Registry::reset_for_testing() {
  std::lock_guard lock(mu_);
  series_.clear();
}

std::string to_json(const Snapshot& snap) {
  std::string counters, gauges, hists;
  for (const auto& e : snap.entries) {
    std::string* out = nullptr;
    std::string body;
    switch (e.kind) {
      case MetricKind::kCounter:
        out = &counters;
        body = std::to_string(e.value);
        break;
      case MetricKind::kGauge:
        out = &gauges;
        body = "{\"value\":" + std::to_string(e.value) +
               ",\"max\":" + std::to_string(e.max) + "}";
        break;
      case MetricKind::kHistogram: {
        out = &hists;
        body = "{\"count\":" + std::to_string(e.count) +
               ",\"sum\":" + std::to_string(e.sum) + ",\"buckets\":[";
        for (std::size_t i = 0; i < e.buckets.size(); ++i) {
          if (i) body += ',';
          body += '[' + std::to_string(e.buckets[i].first) + ',' +
                  std::to_string(e.buckets[i].second) + ']';
        }
        body += "]}";
        break;
      }
    }
    if (!out->empty()) *out += ',';
    append_json_string(*out, e.key());
    *out += ':';
    *out += body;
  }
  return "{\"counters\":{" + counters + "},\"gauges\":{" + gauges +
         "},\"histograms\":{" + hists + "}}";
}

ScopedNs::ScopedNs(Counter& ns_counter)
    : counter_(metrics_enabled() ? &ns_counter : nullptr) {
  if (counter_ != nullptr) t0_ = now_ns();
}

ScopedNs::~ScopedNs() {
  if (counter_ != nullptr) counter_->add(now_ns() - t0_);
}

}  // namespace dcprof::obs
