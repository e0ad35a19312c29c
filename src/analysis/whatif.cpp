#include "analysis/whatif.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace dcprof::analysis {

using core::Metric;
using core::StorageClass;

const char* to_string(WhatIfFix fix) {
  switch (fix) {
    case WhatIfFix::kLocal: return "make remote accesses local";
    case WhatIfFix::kInterleave: return "interleave pages across nodes";
    case WhatIfFix::kPromote: return "promote misses one memory level";
  }
  return "?";
}

sim::OverrideEntry override_for(WhatIfFix fix) {
  sim::OverrideEntry e;
  switch (fix) {
    case WhatIfFix::kLocal:
      e.placement = sim::PlacementOverride::kLocal;
      break;
    case WhatIfFix::kInterleave:
      e.placement = sim::PlacementOverride::kInterleave;
      break;
    case WhatIfFix::kPromote:
      e.latency = sim::LatencyOverride::kNextLevel;
      break;
  }
  return e;
}

namespace {

/// The per-spec runner as a batch: one re-execution per spec.
WhatIfBatchRunner loop_runner(WhatIfRunner runner) {
  if (!runner) throw std::invalid_argument("WhatIfEngine needs a runner");
  return [runner = std::move(runner)](const std::vector<WhatIfSpec>& specs) {
    std::vector<WhatIfRun> runs;
    runs.reserve(specs.size());
    for (const WhatIfSpec& spec : specs) runs.push_back(runner(spec));
    return runs;
  };
}

}  // namespace

WhatIfEngine::WhatIfEngine(WhatIfRunner runner, WhatIfOptions options)
    : WhatIfEngine(loop_runner(std::move(runner)), options) {}

WhatIfEngine::WhatIfEngine(WhatIfBatchRunner runner, WhatIfOptions options)
    : runner_(std::move(runner)), opt_(options) {
  if (!runner_) {
    throw std::invalid_argument("WhatIfEngine needs a runner");
  }
}

std::vector<WhatIfRun> WhatIfEngine::run(
    const std::vector<WhatIfSpec>& specs) {
  std::vector<WhatIfSpec> batch;
  if (!have_baseline_) batch.emplace_back();
  batch.insert(batch.end(), specs.begin(), specs.end());
  std::vector<WhatIfRun> runs = runner_(batch);
  if (runs.size() != batch.size()) {
    throw std::logic_error("what-if runner returned " +
                           std::to_string(runs.size()) + " runs for " +
                           std::to_string(batch.size()) + " specs");
  }
  if (!have_baseline_) {
    baseline_ = runs.front();
    have_baseline_ = true;
    runs.erase(runs.begin());
  }
  return runs;
}

const WhatIfRun& WhatIfEngine::baseline() {
  if (!have_baseline_) run({});
  return baseline_;
}

std::vector<WhatIfCandidate> WhatIfEngine::candidates(
    const core::ThreadProfile& profile, const AnalysisContext& ctx) const {
  const ClassSummary summary = summarize(profile);
  const std::uint64_t total = summary.grand[Metric::kLatency];
  std::vector<WhatIfCandidate> out;
  if (total == 0) return out;
  for (const VariableRow& row :
       variable_table(profile, ctx, Metric::kLatency)) {
    if (out.size() >= opt_.top_n) break;
    // Only heap and static data can be re-placed or re-laid-out; stack
    // and unattributed data have no stable page range to patch.
    if (row.cls != StorageClass::kHeap && row.cls != StorageClass::kStatic) {
      continue;
    }
    const double share = static_cast<double>(row.metrics[Metric::kLatency]) /
                         static_cast<double>(total);
    if (share < opt_.min_share) continue;
    WhatIfCandidate c;
    c.target.name = row.name;
    c.target.cls = row.cls;
    c.target.alloc_ip = row.alloc_ip;
    c.latency_share = share;
    c.remote_samples = row.metrics[Metric::kRemoteDram];
    out.push_back(std::move(c));
  }
  return out;
}

WhatIfPrediction WhatIfEngine::evaluate(const WhatIfSpec& spec,
                                        std::string label) {
  const std::vector<WhatIfRun> runs = run({spec});
  return predict(spec, std::move(label), runs.front());
}

WhatIfPrediction WhatIfEngine::predict(const WhatIfSpec& spec,
                                       std::string label,
                                       const WhatIfRun& run) const {
  const WhatIfRun& base = baseline_;
  // The engine's exactness guard: overrides patch latency, never
  // values, so every what-if run must reproduce the baseline checksum.
  const double scale = std::max(1.0, std::fabs(base.checksum));
  if (std::fabs(run.checksum - base.checksum) > 1e-9 * scale) {
    throw std::logic_error(
        "what-if run diverged from baseline checksum — overrides must "
        "patch latency only, never program values");
  }
  WhatIfPrediction p;
  p.spec = spec;
  p.label = std::move(label);
  p.baseline_cycles = base.cycles;
  p.cycles = run.cycles;
  p.pages_patched = run.pages_patched;
  if (run.cycles > 0) {
    p.speedup = static_cast<double>(base.cycles) /
                static_cast<double>(run.cycles);
    p.gain = 1.0 - static_cast<double>(run.cycles) /
                       static_cast<double>(base.cycles);
  }
  return p;
}

std::vector<WhatIfPrediction> WhatIfEngine::analyze(
    const core::ThreadProfile& profile, const AnalysisContext& ctx) {
  std::vector<WhatIfSpec> specs;
  std::vector<std::string> labels;
  std::vector<double> shares;
  for (const WhatIfCandidate& c : candidates(profile, ctx)) {
    std::vector<WhatIfFix> fixes;
    if (c.remote_samples > 0) {
      fixes.push_back(WhatIfFix::kLocal);
      fixes.push_back(WhatIfFix::kInterleave);
    }
    fixes.push_back(WhatIfFix::kPromote);
    for (const WhatIfFix fix : fixes) {
      WhatIfSpec spec;
      spec.actions.push_back(WhatIfAction{c.target, fix});
      specs.push_back(std::move(spec));
      labels.push_back(c.target.name + ": " + to_string(fix));
      shares.push_back(c.latency_share);
    }
  }
  const std::vector<WhatIfRun> runs = run(specs);
  std::vector<WhatIfPrediction> out;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    WhatIfPrediction p = predict(specs[i], std::move(labels[i]), runs[i]);
    p.latency_share = shares[i];
    out.push_back(std::move(p));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const WhatIfPrediction& a, const WhatIfPrediction& b) {
                     if (a.speedup != b.speedup) return a.speedup > b.speedup;
                     const auto& ta = a.spec.actions.front().target;
                     const auto& tb = b.spec.actions.front().target;
                     if (ta.name != tb.name) return ta.name < tb.name;
                     return static_cast<int>(a.spec.actions.front().fix) <
                            static_cast<int>(b.spec.actions.front().fix);
                   });
  return out;
}

std::string render_whatif(const std::vector<WhatIfPrediction>& predictions) {
  std::ostringstream out;
  if (predictions.empty()) {
    out << "no what-if candidates above the reporting thresholds\n";
    return out.str();
  }
  std::size_t label_w = 4;
  for (const auto& p : predictions) {
    label_w = std::max(label_w, p.label.size());
  }
  out << std::left << std::setw(static_cast<int>(label_w) + 2) << "fix"
      << std::right << std::setw(10) << "lat share" << std::setw(16)
      << "cycles" << std::setw(10) << "speedup" << std::setw(9) << "gain"
      << '\n';
  out << std::string(label_w + 2 + 10 + 16 + 10 + 9, '-') << '\n';
  for (const auto& p : predictions) {
    out << std::left << std::setw(static_cast<int>(label_w) + 2) << p.label
        << std::right << std::setw(9) << std::fixed << std::setprecision(1)
        << p.latency_share * 100.0 << '%' << std::setw(16) << p.cycles
        << std::setw(9) << std::setprecision(3) << p.speedup << 'x'
        << std::setw(8) << std::setprecision(1) << p.gain * 100.0 << '%'
        << '\n';
  }
  out << "(exact virtual speedups: each row re-executes the workload with "
         "the fix patched in)\n";
  return out.str();
}

void apply_predictions(std::vector<Advice>& advice,
                       const std::vector<WhatIfPrediction>& predictions) {
  for (Advice& a : advice) {
    for (const WhatIfPrediction& p : predictions) {
      if (p.spec.actions.size() != 1) continue;
      if (p.spec.actions.front().target.name != a.variable) continue;
      a.predicted_speedup = std::max(a.predicted_speedup, p.speedup);
    }
  }
  std::stable_sort(advice.begin(), advice.end(),
                   [](const Advice& a, const Advice& b) {
                     if (a.predicted_speedup != b.predicted_speedup) {
                       return a.predicted_speedup > b.predicted_speedup;
                     }
                     if (a.severity != b.severity) {
                       return a.severity > b.severity;
                     }
                     return a.variable < b.variable;
                   });
}

}  // namespace dcprof::analysis
