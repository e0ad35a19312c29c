// Validates the causal what-if advisor against the paper's optimized
// variants (Table 2 / Fig. 7 / Fig. 8): for each case study, the
// *predicted* end-to-end speedup — an override re-run through the
// WhatIfEngine — must agree with the *actually re-measured* optimized
// variant within 5% relative, and each re-measured gain must land in the
// paper's 13-53% band. The engines use the batch runners, so each
// threaded prediction is one simulation timing the baseline and the
// patched spec together (the machine-variant path, DESIGN §5k); Sweep3D's
// batch re-runs each spec.
//
//   AMG     NUMA fix:   interleave the matrix arrays, first-touch the
//                       vectors (the libnuma variant). More solve
//                       iterations than the profiling default so the
//                       solve phase carries its paper-scale share.
//   Sweep3D layout fix: transpose Flux/Src so the innermost-traversed
//                       dimension is contiguous; predicted as promoting
//                       both variables' misses one level.
//   LULESH  heap fix:   libnuma-interleave the hot heap arrays.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "analysis/whatif.h"
#include "workloads/rerun.h"

using namespace dcprof;

namespace {

constexpr double kRelTolerance = 0.05;  // |pred - meas| / meas
constexpr double kBandLo = 0.13;        // paper's smallest measured gain
constexpr double kBandHi = 0.53;        // paper's largest measured gain

int failures = 0;

/// Looks a profiled variable up by name so the spec targets exactly what
/// the measurement identified (same alloc path / static name).
analysis::WhatIfTarget target_of(const std::vector<analysis::VariableRow>& rows,
                                 const std::string& name) {
  for (const auto& row : rows) {
    if (row.name != name) continue;
    analysis::WhatIfTarget t;
    t.name = row.name;
    t.cls = row.cls;
    t.alloc_ip = row.alloc_ip;
    return t;
  }
  std::fprintf(stderr, "FAIL: variable %s not in the measured profile\n",
               name.c_str());
  ++failures;
  return {};
}

struct CaseResult {
  std::string name;
  double predicted = 1;
  double measured = 1;
  double measured_gain = 0;
  double rel_err = 0;
};

CaseResult check(const std::string& name, const analysis::WhatIfPrediction& p,
                 sim::Cycles measured_cycles) {
  CaseResult c;
  c.name = name;
  c.predicted = p.speedup;
  c.measured = static_cast<double>(p.baseline_cycles) /
               static_cast<double>(measured_cycles);
  c.measured_gain = 1.0 - static_cast<double>(measured_cycles) /
                              static_cast<double>(p.baseline_cycles);
  c.rel_err = std::fabs(c.predicted - c.measured) / c.measured;
  if (p.pages_patched == 0) {
    std::fprintf(stderr, "FAIL: %s what-if overrides attached to no pages\n",
                 name.c_str());
    ++failures;
  }
  if (c.rel_err > kRelTolerance) {
    std::fprintf(stderr,
                 "FAIL: %s predicted %.3fx vs re-measured %.3fx "
                 "(rel err %.1f%% > %.0f%%)\n",
                 name.c_str(), c.predicted, c.measured, c.rel_err * 100,
                 kRelTolerance * 100);
    ++failures;
  }
  if (c.measured_gain < kBandLo || c.measured_gain > kBandHi) {
    std::fprintf(stderr,
                 "FAIL: %s re-measured gain %.1f%% outside the paper's "
                 "%.0f-%.0f%% band\n",
                 name.c_str(), c.measured_gain * 100, kBandLo * 100,
                 kBandHi * 100);
    ++failures;
  }
  return c;
}

CaseResult run_amg() {
  wl::AmgParams prm;
  prm.iters = 12;  // solve-dominated, as in the paper's full-scale runs
  core::ThreadProfile profile;
  std::vector<analysis::VariableRow> rows;
  {
    wl::ProcessCtx proc(wl::node_config(), 16, "amg");
    proc.enable_profiling(wl::ibs_config());
    wl::Amg amg(proc, prm);
    amg.run();
    profile = proc.merged_profile();
    rows = analysis::variable_table(profile, proc.actx(),
                                    core::Metric::kLatency);
  }
  analysis::WhatIfEngine engine(wl::make_amg_whatif_batch_runner(prm));
  // The libnuma fix: interleave the master-calloc'd matrix arrays;
  // the vectors are switched to parallel first touch (perfectly local).
  analysis::WhatIfSpec spec;
  for (const char* v : {"S_diag_j", "A_diag_i", "A_diag_j", "A_diag_data"}) {
    spec.actions.push_back(
        {target_of(rows, v), analysis::WhatIfFix::kInterleave});
  }
  for (const char* v : {"vec_x", "vec_b", "vec_y"}) {
    spec.actions.push_back({target_of(rows, v), analysis::WhatIfFix::kLocal});
  }
  const auto p = engine.evaluate(spec, "AMG libnuma fix");

  wl::AmgParams opt = prm;
  opt.variant = wl::AmgVariant::kLibnuma;
  wl::ProcessCtx proc(wl::node_config(), 16, "amg");
  const wl::RunResult r = wl::Amg(proc, opt).run();
  return check("AMG (NUMA fix)", p, r.sim_cycles);
}

CaseResult run_sweep3d() {
  const wl::Sweep3dParams prm;  // the paper's 8-rank configuration
  const auto measured =
      wl::run_sweep3d_cluster(prm, /*profiled=*/true, wl::ibs_config());
  std::vector<analysis::VariableRow> rows;
  {
    // Resolve labels the same way dcprof_analyze would: rebuild the
    // structure from a rank constructed standalone.
    wl::ProcessCtx proc(wl::rank_config(), 1, "sweep3d");
    wl::Sweep3dRank w(proc, prm, nullptr);
    rows = analysis::variable_table(*measured.profile, proc.actx(),
                                    core::Metric::kLatency);
  }
  analysis::WhatIfEngine engine(wl::make_sweep3d_whatif_batch_runner(prm));
  analysis::WhatIfSpec spec;
  spec.actions.push_back(
      {target_of(rows, "Flux"), analysis::WhatIfFix::kPromote});
  spec.actions.push_back(
      {target_of(rows, "Src"), analysis::WhatIfFix::kPromote});
  const auto p = engine.evaluate(spec, "Sweep3D layout fix");

  wl::Sweep3dParams opt = prm;
  opt.transposed = true;
  const auto r = wl::run_sweep3d_cluster(opt, /*profiled=*/false);
  return check("Sweep3D (layout fix)", p, r.sim_cycles);
}

CaseResult run_lulesh() {
  const wl::LuleshParams prm;
  core::ThreadProfile profile;
  std::vector<analysis::VariableRow> rows;
  {
    wl::ProcessCtx proc(wl::node_config(), 16, "lulesh");
    proc.enable_profiling(wl::ibs_config());
    wl::Lulesh w(proc, prm);
    w.run();
    profile = proc.merged_profile();
    rows = analysis::variable_table(profile, proc.actx(),
                                    core::Metric::kLatency);
  }
  analysis::WhatIfEngine engine(wl::make_lulesh_whatif_batch_runner(prm));
  // The libnuma fix interleaves every master-calloc'd heap array.
  analysis::WhatIfSpec spec;
  for (const auto& row : rows) {
    if (row.cls != core::StorageClass::kHeap) continue;
    spec.actions.push_back(
        {target_of(rows, row.name), analysis::WhatIfFix::kInterleave});
  }
  const auto p = engine.evaluate(spec, "LULESH heap fix");

  wl::LuleshParams opt = prm;
  opt.interleave_heap = true;
  wl::ProcessCtx proc(wl::node_config(), 16, "lulesh");
  const wl::RunResult r = wl::Lulesh(proc, opt).run();
  return check("LULESH (heap fix)", p, r.sim_cycles);
}

}  // namespace

int main() {
  analysis::Table table({"case study", "predicted", "re-measured",
                         "measured gain", "rel err"});
  for (const CaseResult& c : {run_amg(), run_sweep3d(), run_lulesh()}) {
    char pred[32], meas[32], gain[32], err[32];
    std::snprintf(pred, sizeof(pred), "%.3fx", c.predicted);
    std::snprintf(meas, sizeof(meas), "%.3fx", c.measured);
    std::snprintf(gain, sizeof(gain), "%.1f%%", c.measured_gain * 100);
    std::snprintf(err, sizeof(err), "%.1f%%", c.rel_err * 100);
    table.add_row({c.name, pred, meas, gain, err});
  }
  std::printf(
      "What-if validation: predicted (override re-run) vs re-measured "
      "(optimized variant)\n%s\n",
      table.render().c_str());
  if (failures > 0) {
    std::fprintf(stderr, "%d validation failure(s)\n", failures);
    return 1;
  }
  std::printf(
      "all predictions within %.0f%% relative of the re-measured variants; "
      "gains inside the paper's %.0f-%.0f%% band\n",
      kRelTolerance * 100, kBandLo * 100, kBandHi * 100);
  return 0;
}
