#include "core/profiler.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/tracer.h"
#include "sim/address_space.h"

namespace dcprof::core {

namespace {
// Index-aligned with StorageClass; used for metric labels.
constexpr const char* kClassNames[kNumStorageClasses] = {
    "nomem", "static", "heap", "stack", "unknown"};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One access-pattern table update, keyed per patterns.h (heap -> the
/// variable-identifying allocation-path IP, static/stack -> interned
/// name, unknown -> 0), recorded at attribution time in sample order.
void record_pattern(PatternRecorder& rec, StorageClass cls, std::uint64_t id,
                    const pmu::Sample& s) {
  rec.record(static_cast<std::uint8_t>(cls), id, s.eaddr, s.is_store,
             static_cast<std::uint8_t>(s.source));
}

}  // namespace

Profiler::Telemetry::Telemetry() {
  obs::Registry& reg = obs::Registry::global();
  handled = reg.counter("profiler.samples", {{"outcome", "handled"}});
  dropped = reg.counter("profiler.samples", {{"outcome", "dropped"}});
  for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
    class_samples[c] =
        reg.counter("profiler.class_samples", {{"class", kClassNames[c]}});
    attr_depth[c] =
        reg.histogram("profiler.attr_depth", {{"class", kClassNames[c]}});
  }
  memo_reused = reg.counter("profiler.memo_frames", {{"kind", "reused"}});
  memo_walked = reg.counter("profiler.memo_frames", {{"kind", "walked"}});
  sample_ns = reg.counter("profiler.sample_ns");
  cct_nodes = reg.counter("profiler.cct_nodes");
  cct_bytes = reg.counter("profiler.cct_bytes");
  sample_ns_hist = reg.histogram("profiler.sample_ns_hist");
}

Profiler::Profiler(binfmt::ModuleRegistry& modules, ProfilerConfig cfg,
                   std::int32_t rank)
    : modules_(&modules), cfg_(cfg), rank_(rank),
      tracker_(var_map_, paths_, cfg.tracker) {
  var_map_.set_mru_enabled(cfg_.var_map_mru);
}

ProfilerStats Profiler::stats() const {
  ProfilerStats s;
  s.samples_handled = tm_.handled.value();
  s.samples_dropped = tm_.dropped.value();
  s.nomem_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kNoMem)]
          .value();
  s.static_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kStatic)]
          .value();
  s.heap_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kHeap)]
          .value();
  s.stack_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kStack)]
          .value();
  s.unknown_samples =
      tm_.class_samples[static_cast<std::size_t>(StorageClass::kUnknown)]
          .value();
  s.memo_frames_reused = tm_.memo_reused.value();
  s.memo_frames_walked = tm_.memo_walked.value();
  return s;
}

void Profiler::attach_pmu(pmu::PmuSet& pmu) {
  pmu_ = &pmu;
  pmu.set_handler([this](const pmu::Sample& s) { handle_sample(s); });
}

void Profiler::attach_allocator(rt::Allocator& alloc) {
  alloc.set_hooks(rt::AllocHooks{
      [this](rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size,
             sim::Addr ip) { tracker_.on_alloc(ctx, base, size, ip); },
      [this](rt::ThreadCtx& ctx, sim::Addr base, std::uint64_t size) {
        tracker_.on_free(ctx, base, size);
      }});
}

void Profiler::register_thread(rt::ThreadCtx& ctx) {
  const auto tid = static_cast<std::size_t>(ctx.tid());
  if (threads_.size() <= tid) threads_.resize(tid + 1, nullptr);
  threads_[tid] = &ctx;
}

void Profiler::register_team(rt::Team& team) {
  for (int t = 0; t < team.size(); ++t) register_thread(team.thread(t));
}

ThreadProfile& Profiler::profile(sim::ThreadId tid) {
  const auto i = static_cast<std::size_t>(tid);
  if (profiles_.size() <= i) profiles_.resize(i + 1);
  if (!profiles_[i]) {
    profiles_[i] = std::make_unique<ThreadProfile>();
    profiles_[i]->rank = rank_;
    profiles_[i]->tid = tid;
  }
  return *profiles_[i];
}

Profiler::ThreadAttrState& Profiler::attr_state(std::size_t tid,
                                                 ThreadProfile& tp) {
  if (attr_.size() <= tid) attr_.resize(tid + 1);
  if (!attr_[tid]) attr_[tid] = std::make_unique<ThreadAttrState>(tp.patterns);
  return *attr_[tid];
}

void Profiler::attribute_context(ThreadProfile& tp, StorageClass sc,
                                 ThreadAttrState& as, Cct::NodeId anchor,
                                 std::span<const sim::Addr> stack,
                                 sim::Addr leaf_ip, const MetricVec& m) {
  Cct& cct = tp.cct(sc);
  ClassMemo& memo = as.memo[static_cast<std::size_t>(sc)];
  const bool memoize = cfg_.memoized_attribution;
  // Resume at the divergence point: the first `valid` frames are
  // unchanged since the memoized walk (watermark-guaranteed), so their
  // find-or-create results are already known.
  std::size_t k = 0;
  if (memoize && memo.anchor_known && memo.anchor == anchor) {
    k = std::min({memo.valid, memo.nodes.size(), stack.size()});
  }
  tm_.memo_reused.add(k);
  tm_.memo_walked.add(stack.size() - k);
  if (obs::metrics_enabled()) {
    tm_.attr_depth[static_cast<std::size_t>(sc)].record(stack.size());
  }
  Cct::NodeId cur = k == 0 ? anchor : memo.nodes[k - 1];
  if (memoize) {
    memo.nodes.resize(stack.size());
    for (std::size_t i = k; i < stack.size(); ++i) {
      cur = cct.child(cur, NodeKind::kCallSite, stack[i]);
      memo.nodes[i] = cur;
    }
    memo.anchor = anchor;
    memo.anchor_known = true;
    memo.valid = stack.size();
  } else {
    for (std::size_t i = k; i < stack.size(); ++i) {
      cur = cct.child(cur, NodeKind::kCallSite, stack[i]);
    }
  }
  cct.add_metrics(cct.child(cur, NodeKind::kLeafInstr, leaf_ip), m);
}

void Profiler::handle_sample(const pmu::Sample& sample) {
  const auto tid = static_cast<std::size_t>(sample.tid);
  if (tid >= threads_.size() || threads_[tid] == nullptr) {
    tm_.dropped.inc();
    return;
  }
  OBS_SPAN("profiler.handle_sample");
  rt::ThreadCtx& ctx = *threads_[tid];
  ThreadProfile& tp = profile(sample.tid);
  ThreadAttrState& as = attr_state(tid, tp);
  tm_.handled.inc();
  if (!obs::metrics_enabled()) {
    attribute_sample(sample, ctx, tp, as);
    return;
  }
  // Metrics on: time the handler and account CCT growth across every
  // class (anchor nodes included).
  std::size_t nodes0 = 0;
  for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
    nodes0 += tp.cct(static_cast<StorageClass>(c)).size();
  }
  const std::uint64_t t0 = steady_ns();
  attribute_sample(sample, ctx, tp, as);
  const std::uint64_t dt = steady_ns() - t0;
  tm_.sample_ns.add(dt);
  tm_.sample_ns_hist.record(dt);
  std::size_t nodes1 = 0;
  for (std::size_t c = 0; c < kNumStorageClasses; ++c) {
    nodes1 += tp.cct(static_cast<StorageClass>(c)).size();
  }
  if (nodes1 > nodes0) {
    tm_.cct_nodes.add(nodes1 - nodes0);
    tm_.cct_bytes.add((nodes1 - nodes0) * sizeof(Cct::Node));
  }
}

void Profiler::attribute_sample(const pmu::Sample& sample, rt::ThreadCtx& ctx,
                                ThreadProfile& tp, ThreadAttrState& as) {
  // One watermark take per sample: every class's trusted prefix shrinks
  // to how far the stack has unwound since the previous sample.
  const std::size_t watermark = ctx.take_stack_watermark();
  for (auto& memo : as.memo) memo.valid = std::min(memo.valid, watermark);
  const MetricVec m = MetricVec::from_sample(sample);
  // The unwind from the signal context ends at the skidded IP; the paper
  // swaps in the precise IP recorded by the PMU.
  const sim::Addr leaf_ip =
      cfg_.use_precise_ip ? sample.precise_ip : sample.signal_ip;

  if (!sample.is_memory) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kNoMem)].inc();
    attribute_context(tp, StorageClass::kNoMem, as, Cct::kRootId,
                      ctx.call_stack(), leaf_ip, m);
    return;
  }

  if (const HeapBlock* block = var_map_.find(sample.eaddr)) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kHeap)].inc();
    if (cfg_.access_patterns) {
      record_pattern(as.patterns, StorageClass::kHeap, block->pattern_id,
                     sample);
    }
    // Prepend the variable's allocation path (possibly unwound in another
    // thread; AllocPaths are immutable so this copy is lock-free), then
    // the dummy data node, then this sample's own calling context.
    // Consecutive samples into the same variable reuse the dummy node.
    Cct& cct = tp.cct(StorageClass::kHeap);
    Cct::NodeId anchor;
    if (cfg_.memoized_attribution &&
        as.last_heap_path == block->path.get()) {
      anchor = as.heap_anchor;
    } else {
      Cct::NodeId cur = Cct::kRootId;
      for (const sim::Addr frame : block->path->frames) {
        cur = cct.child(cur, NodeKind::kCallSite, frame);
      }
      cur = cct.child(cur, NodeKind::kAllocPoint, block->path->alloc_ip);
      anchor = cct.child(cur, NodeKind::kVarData, 0);
      as.last_heap_path = block->path.get();
      as.heap_anchor = anchor;
    }
    attribute_context(tp, StorageClass::kHeap, as, anchor, ctx.call_stack(),
                      leaf_ip, m);
    return;
  }

  if (auto hit = modules_->resolve_static(sample.eaddr)) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kStatic)].inc();
    StringId name;
    if (auto it = as.static_names.find(hit->sym->lo);
        it != as.static_names.end()) {
      name = it->second;
    } else {
      name = tp.strings.intern(hit->sym->name);
      as.static_names.emplace(hit->sym->lo, name);
    }
    if (cfg_.access_patterns) {
      record_pattern(as.patterns, StorageClass::kStatic, name, sample);
    }
    Cct& cct = tp.cct(StorageClass::kStatic);
    const Cct::NodeId dummy =
        cct.child(Cct::kRootId, NodeKind::kVarStatic, name);
    attribute_context(tp, StorageClass::kStatic, as, dummy, ctx.call_stack(),
                      leaf_ip, m);
    return;
  }

  if (cfg_.attribute_stack && sample.eaddr >= sim::kStackBase) {
    tm_.class_samples[static_cast<std::size_t>(StorageClass::kStack)].inc();
    const std::uint64_t owner = (sample.eaddr - sim::kStackBase) >> 20;
    StringId name;
    if (auto it = as.stack_names.find(owner); it != as.stack_names.end()) {
      name = it->second;
    } else {
      name = tp.strings.intern(
          "stack (thread " + std::to_string(static_cast<long>(owner)) + ")");
      as.stack_names.emplace(owner, name);
    }
    if (cfg_.access_patterns) {
      record_pattern(as.patterns, StorageClass::kStack, name, sample);
    }
    Cct& cct = tp.cct(StorageClass::kStack);
    const Cct::NodeId dummy =
        cct.child(Cct::kRootId, NodeKind::kVarStatic, name);
    attribute_context(tp, StorageClass::kStack, as, dummy, ctx.call_stack(),
                      leaf_ip, m);
    return;
  }

  tm_.class_samples[static_cast<std::size_t>(StorageClass::kUnknown)].inc();
  if (cfg_.access_patterns) {
    record_pattern(as.patterns, StorageClass::kUnknown, 0, sample);
  }
  attribute_context(tp, StorageClass::kUnknown, as, Cct::kRootId,
                    ctx.call_stack(), leaf_ip, m);
}

std::vector<ThreadProfile> Profiler::take_profiles() {
  // Stamp the sampling period into each profile header. Samples are
  // taken at the configured period throughout.
  std::uint64_t period = 0;
  if (pmu_ != nullptr && !pmu_->configs().empty()) {
    period = pmu_->configs()[0].period;
  }
  std::vector<ThreadProfile> out;
  for (auto& p : profiles_) {
    if (p) {
      p->sampling_period = period;
      out.push_back(std::move(*p));
    }
  }
  // Every cached NodeId and StringId referred to the profiles moved out,
  // and each recorder to one of their tables; a new measurement phase
  // starts cold.
  attr_.clear();
  profiles_.clear();
  return out;
}

}  // namespace dcprof::core
