// The presentation layer: storage-class summaries, the data-centric
// variable view, hot-access view, bottom-up allocation-site view, and a
// top-down CCT rendering — text equivalents of the paper's GUI panes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/merge.h"
#include "binfmt/load_module.h"
#include "core/profile.h"

namespace dcprof::analysis {

/// Resolution context used to render node labels.
struct AnalysisContext {
  const binfmt::SymbolResolver* modules = nullptr;
  /// Optional source-pane annotations: allocation IP -> variable name
  /// (the paper's GUI shows these next to allocation call sites).
  const std::map<sim::Addr, std::string>* alloc_names = nullptr;

  std::string ip_label(sim::Addr ip) const;
  std::string alloc_name(sim::Addr ip) const;  // "" if unannotated
};

/// Human-readable label for one CCT node.
std::string node_label(const core::Cct::Node& node,
                       const core::StringTable& strings,
                       const AnalysisContext& ctx);

/// Totals per storage class (the "94.9% of remote accesses are heap" line).
struct ClassSummary {
  core::MetricVec per_class[core::kNumStorageClasses];
  core::MetricVec grand;

  double fraction(core::StorageClass c, core::Metric m) const {
    const auto g = grand[m];
    if (g == 0) return 0.0;
    return static_cast<double>(
               per_class[static_cast<std::size_t>(c)][m]) /
           static_cast<double>(g);
  }
};

ClassSummary summarize(const core::ThreadProfile& profile);

/// One variable in the data-centric view. Heap variables are identified
/// by their allocation path; `node` is the kAllocPoint (heap) or
/// kVarStatic (static) node.
struct VariableRow {
  std::string name;
  core::StorageClass cls = core::StorageClass::kUnknown;
  sim::Addr alloc_ip = 0;
  core::Cct::NodeId node = 0;
  core::MetricVec metrics;  ///< inclusive over the variable's accesses
};

/// All variables sorted descending by `sort_by`; appends a synthetic
/// "unknown data" row when the unknown CCT has samples.
std::vector<VariableRow> variable_table(const core::ThreadProfile& profile,
                                        const AnalysisContext& ctx,
                                        core::Metric sort_by);

/// Sampled access instructions aggregated per (owning variable, IP).
struct AccessRow {
  std::string variable;
  std::string site;
  sim::Addr ip = 0;
  core::MetricVec metrics;
};

std::vector<AccessRow> access_table(const core::ThreadProfile& profile,
                                    core::StorageClass cls,
                                    const AnalysisContext& ctx,
                                    core::Metric sort_by);

/// Bottom-up view: heap variables aggregated by allocation *site* (same
/// malloc call instruction across all calling contexts).
struct AllocSiteRow {
  std::string site;
  std::string name;
  sim::Addr ip = 0;
  std::uint64_t contexts = 0;  ///< distinct allocation call paths
  core::MetricVec metrics;
};

std::vector<AllocSiteRow> bottom_up_alloc_sites(
    const core::ThreadProfile& profile, const AnalysisContext& ctx,
    core::Metric sort_by);

/// Code-centric flat view: metrics aggregated per function across every
/// storage class (what a classic profiler reports). Complements the
/// data-centric views, as in HPCToolkit.
struct FunctionRow {
  std::string func;
  std::string file;
  core::MetricVec metrics;
};

std::vector<FunctionRow> function_table(const core::ThreadProfile& profile,
                                        const AnalysisContext& ctx,
                                        core::Metric sort_by);

/// One ThreadRow (analysis/merge.h) per unmerged profile, in order.
std::vector<ThreadRow> thread_table(
    const std::vector<core::ThreadProfile>& profiles);

/// Display name of a variable-owning node (kAllocPoint or kVarStatic)
/// as the variable views would print it; empty for every other kind.
std::string variable_node_name(const core::Cct& cct, core::Cct::NodeId id,
                               const core::ThreadProfile& profile,
                               const AnalysisContext& ctx);

/// Names the variable behind one access-pattern table key (heap keys are
/// allocation IPs, static/stack keys are interned names, unknown is 0).
std::string pattern_var_name(const core::VarPatternKey& key,
                             const core::ThreadProfile& profile,
                             const AnalysisContext& ctx);

/// Per-variable memory-level breakdown: where the variable's sampled
/// loads and stores were satisfied (the paper's GUI shows this as the
/// per-variable metric columns; v4 profiles carry it per sample).
struct MemLevelRow {
  std::string name;
  core::StorageClass cls = core::StorageClass::kUnknown;
  std::uint64_t accesses = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  /// loads+stores satisfied per level (L1, L2, L3, local DRAM, remote).
  std::uint64_t levels[core::kNumMemLevels] = {};
};

std::vector<MemLevelRow> mem_level_table(const core::ThreadProfile& profile,
                                         const AnalysisContext& ctx);

/// Per-variable reuse-distance summary, derived from the v4 reuse
/// histogram: footprint (cold lines x line size), reuse count, and the
/// median / maximum reuse distance as power-of-2 bucket upper bounds.
struct ReuseRow {
  std::string name;
  core::StorageClass cls = core::StorageClass::kUnknown;
  std::uint64_t accesses = 0;
  std::uint64_t cold_lines = 0;       ///< distinct cache lines touched
  std::uint64_t footprint_bytes = 0;  ///< cold_lines << kPatternLineShift
  std::uint64_t reuses = 0;           ///< histogram total (re-touches)
  std::uint64_t median_distance = 0;  ///< bucket limit of the median reuse
  std::uint64_t max_distance = 0;     ///< bucket limit of the largest reuse
};

std::vector<ReuseRow> reuse_table(const core::ThreadProfile& profile,
                                  const AnalysisContext& ctx);

/// How a variable walks memory, judged from its stride histogram.
enum class StridePattern : std::uint8_t {
  kSequential,  ///< most strides stay within one cache line
  kStrided,     ///< one non-sequential stride bucket dominates
  kRandom,      ///< no dominant stride
  kUnknown,     ///< fewer than two sampled addresses
};

const char* to_string(StridePattern p);

/// Per-variable stride/footprint classification (tentpole view 3).
struct StrideRow {
  std::string name;
  core::StorageClass cls = core::StorageClass::kUnknown;
  std::uint64_t accesses = 0;
  std::uint64_t strides = 0;           ///< recorded successive-address deltas
  std::uint64_t dominant_stride = 0;   ///< bucket limit of the modal stride
  double dominant_share = 0.0;         ///< modal bucket / all strides
  std::uint64_t footprint_bytes = 0;
  StridePattern pattern = StridePattern::kUnknown;
};

std::vector<StrideRow> stride_table(const core::ThreadProfile& profile,
                                    const AnalysisContext& ctx);

/// Renders the per-variable memory-level matrix.
std::string render_mem_levels(const std::vector<MemLevelRow>& rows,
                              std::size_t max_rows = 20);

/// Renders the reuse-distance summary table.
std::string render_reuse(const std::vector<ReuseRow>& rows,
                         std::size_t max_rows = 20);

/// Renders the stride classification table.
std::string render_strides(const std::vector<StrideRow>& rows,
                           std::size_t max_rows = 20);

struct TopDownOptions {
  core::Metric metric = core::Metric::kLatency;
  double min_fraction = 0.01;  ///< hide subtrees below this share
  int max_depth = 64;
};

/// Renders one storage class's CCT as an indented tree with inclusive
/// metric values and percentages of the profile-wide total.
std::string render_top_down(const core::ThreadProfile& profile,
                            core::StorageClass cls,
                            const AnalysisContext& ctx,
                            const TopDownOptions& options = {});

/// Renders the variable table (metrics + share of the grand total).
std::string render_variables(const std::vector<VariableRow>& rows,
                             const ClassSummary& summary, core::Metric metric,
                             std::size_t max_rows = 20);

}  // namespace dcprof::analysis
