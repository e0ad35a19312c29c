// perfbench_trace — the benchmark's traced pass. Each invocation runs one
// unit of a workload's user path through dcprof's public entry points and
// records a span around every call into a layer. Spans are kept in memory
// and written when the unit ends, as Chrome trace_event JSON (loadable in
// Perfetto) together with the exact work counts the unit observed:
//
//   perfbench_trace OUT.json RUN unit args...
//
//   run <workload> bare|pmu|full <meas-dir> [metrics-on]
//       one execution of a case study, wired exactly like dcprof_measure:
//       `bare` attaches no PMU, `pmu` counts with the tool detached, `full`
//       profiles and writes the measurement directory (the paper's Table 1
//       method, as bench/table1_overhead.cpp uses it).
//   whatif <workload> <meas-dir>
//       Analyzer::run + WhatIfEngine over a measurement directory, every
//       re-run wrapped in a span (safe to record from any thread).
//   fold <dir> <merged-out>
//       one batch Analyzer::run; stage spans come from its StageTimings.
//   ingest <dir> <checkpoint> <merged-out>
//       IngestService at daemon cadence: poll_once() folding 64 shards,
//       then an explicit checkpoint() (claiming on), until drained.
//   aggregate <checkpoint> <merged-out>
//       the aggregate a daemon checkpoint holds (untraced; for checking).
//   spawn <program> args...
//       runs one tool as a child and writes {"exit", "wall_s",
//       "maxrss_kib"} to OUT.json instead of a trace (see spawn()).
//
// `merged-out` receives the serialized aggregate so the harness can digest
// it against the det reference. Every span records name, start, end,
// parent and run id; RUN ties the units of one traced pass together.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/ingest.h"
#include "analysis/pipeline.h"
#include "analysis/whatif.h"
#include "obs/registry.h"
#include "rt/cluster.h"
#include "workloads/amg.h"
#include "workloads/harness.h"
#include "workloads/lulesh.h"
#include "workloads/nw.h"
#include "workloads/rerun.h"
#include "workloads/streamcluster.h"
#include "workloads/sweep3d.h"

using namespace dcprof;
namespace fs = std::filesystem;

namespace {

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int this_thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
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
  return out + "\"";
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// In-memory span store. begin/end may be called from any thread.
class Spans {
 public:
  explicit Spans(int run) : run_(run) {}

  int begin(std::string name, int parent) {
    const double t = now_us();
    std::lock_guard lock(mu_);
    spans_.push_back(Span{std::move(name), t, t, parent, this_thread_index()});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    const double t = now_us();
    std::lock_guard lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }
  /// A span whose bounds were measured elsewhere (the analyzer's own
  /// stage timers).
  void add(std::string name, int parent, double start, double end) {
    std::lock_guard lock(mu_);
    spans_.push_back(
        Span{std::move(name), start, end, parent, this_thread_index()});
  }

  std::string to_json() {
    std::lock_guard lock(mu_);
    std::string out = "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i > 0) out += ",\n";
      out += "{\"name\":" + json_string(s.name) +
             ",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":" +
             json_number(s.start) + ",\"dur\":" + json_number(s.end - s.start) +
             ",\"pid\":" + std::to_string(run_) +
             ",\"tid\":" + std::to_string(s.tid) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"run\":" + std::to_string(run_) + "}}";
    }
    return out + "]";
  }

 private:
  struct Span {
    std::string name;
    double start;
    double end;
    int parent;
    int tid;
  };
  const int run_;
  std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

class Scoped {
 public:
  Scoped(Spans& spans, std::string name, int parent)
      : spans_(spans), id_(spans.begin(std::move(name), parent)) {}
  ~Scoped() { spans_.end(id_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  int id() const { return id_; }

 private:
  Spans& spans_;
  const int id_;
};

/// Exact counts and short texts a unit reports next to its spans.
struct Report {
  std::map<std::string, double> counts;
  std::map<std::string, std::string> texts;
};

void write_report(const std::string& path, Spans& spans, const Report& r) {
  std::string out = "{\"traceEvents\":" + spans.to_json() + ",\n\"counts\":{";
  const char* sep = "";
  for (const auto& [k, v] : r.counts) {
    out.append(sep).append(json_string(k)).append(":").append(json_number(v));
    sep = ",";
  }
  out += "},\n\"texts\":{";
  sep = "";
  for (const auto& [k, v] : r.texts) {
    out.append(sep).append(json_string(k)).append(":").append(json_string(v));
    sep = ",";
  }
  out += "}}\n";
  std::ofstream f(path, std::ios::trunc);
  f << out;
  if (!f) throw std::runtime_error("cannot write " + path);
}

void write_bytes(const std::string& path, const core::ThreadProfile* p) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (p != nullptr) p->write(f);
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::string checksum_text(double checksum) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", checksum);  // dcprof_measure's format
  return buf;
}

/// Simulator, PMU and profiler counts of one process after its run.
void add_counts(Report& r, wl::ProcessCtx& proc) {
  sim::Machine& m = proc.machine();
  const sim::MemLevelStats s = m.memory().stats();
  auto& c = r.counts;
  c["sim.accesses"] += static_cast<double>(m.memory_accesses());
  c["sim.instructions"] += static_cast<double>(m.instructions_retired());
  c["sim.l1_hits"] += static_cast<double>(s.l1_hits);
  c["sim.l2_hits"] += static_cast<double>(s.l2_hits);
  c["sim.l3_hits"] += static_cast<double>(s.l3_hits);
  c["sim.dram_local"] += static_cast<double>(s.local_dram);
  c["sim.dram_remote"] += static_cast<double>(s.remote_dram);
  c["sim.tlb_misses"] += static_cast<double>(s.tlb_misses);
  c["sim.prefetched"] += static_cast<double>(s.prefetched);
  for (int n = 0; n < m.config().num_nodes(); ++n) {
    c["sim.dram_wait_cycles"] +=
        static_cast<double>(m.memory().controller(n).total_wait());
  }
  if (pmu::PmuSet* pmu = proc.pmu()) {
    for (std::size_t i = 0; i < pmu->configs().size(); ++i) {
      c["pmu.events"] += static_cast<double>(pmu->events_counted(i));
    }
    c["pmu.samples"] += static_cast<double>(pmu->samples_taken());
  }
  if (core::Profiler* prof = proc.profiler()) {
    const core::ProfilerStats& ps = prof->stats();
    const core::VarMapStats& vs = prof->heap_map().stats();
    c["core.memo_frames_reused"] += static_cast<double>(ps.memo_frames_reused);
    c["core.memo_frames_walked"] += static_cast<double>(ps.memo_frames_walked);
    c["core.mru_hits"] += static_cast<double>(vs.mru_hits);
    c["core.mru_misses"] += static_cast<double>(vs.mru_misses);
  }
}

template <typename Workload, typename Params>
void run_threaded(Spans& spans, int root, Report& r, const std::string& name,
                  const std::string& way, const std::string& dir) {
  wl::ProcessCtx proc(wl::node_config(), 16, name);
  Workload w(proc, Params{});
  if (way != "bare") {
    proc.enable_profiling(wl::ibs_config(1024), {}, 0, way == "full");
  }
  wl::RunResult result;
  {
    Scoped s(spans, "workload.run", root);
    result = w.run();
  }
  add_counts(r, proc);
  r.counts["sim.cycles"] = static_cast<double>(result.sim_cycles);
  r.texts["checksum"] = checksum_text(result.checksum);
  if (way == "full") {
    Scoped s(spans, "core.write_measurements", root);
    r.counts["core.profile_bytes"] =
        static_cast<double>(proc.write_measurements(dir));
  }
}

/// Sweep3D as dcprof_measure runs it: 8 single-threaded ranks, each on
/// its own host thread, each rank's profiler writing into the one dir.
void run_sweep3d(Spans& spans, int root, Report& r, const std::string& way,
                 const std::string& dir) {
  rt::Cluster cluster(8, wl::rank_config(), 1);
  const wl::Sweep3dParams prm;
  std::mutex mu;
  sim::Cycles cycles = 0;
  double checksum = 0;
  std::vector<double> rank_checksums(8, 0);
  Scoped cluster_span(spans, "cluster.run", root);
  cluster.run([&](rt::Rank& rank) {
    wl::ProcessCtx proc(rank, "sweep3d");
    if (way != "bare") {
      proc.enable_profiling(wl::ibs_config(1024), {}, rank.id(),
                            way == "full");
    }
    wl::Sweep3dRank w(proc, prm, &rank);
    wl::RunResult result;
    {
      Scoped s(spans, "rank.run", cluster_span.id());
      result = w.run();
    }
    // dcprof_measure also writes each rank's profiles under its lock.
    std::lock_guard lock(mu);
    add_counts(r, proc);  // before the write ends the profiling session
    cycles = std::max(cycles, result.sim_cycles);
    rank_checksums[static_cast<std::size_t>(rank.id())] = result.checksum;
    if (way == "full") {
      Scoped s(spans, "core.write_measurements", cluster_span.id());
      r.counts["core.profile_bytes"] +=
          static_cast<double>(proc.write_measurements(dir));
    }
  });
  for (const double c : rank_checksums) checksum += c;  // rank order
  r.counts["sim.cycles"] = static_cast<double>(cycles);
  r.texts["checksum"] = checksum_text(checksum);
}

void unit_run(Spans& spans, Report& r, const std::vector<std::string>& a) {
  if (a.size() < 3) throw std::invalid_argument("run <workload> <way> <dir>");
  const std::string& workload = a[0];
  const std::string& way = a[1];
  const std::string& dir = a[2];
  if (way != "bare" && way != "pmu" && way != "full") {
    throw std::invalid_argument("unknown way: " + way);
  }
  const bool metrics_on = a.size() > 3 && a[3] == "metrics-on";
  obs::set_metrics_enabled(metrics_on);
  Scoped root(spans, "run." + way + (metrics_on ? ".metrics" : ""), -1);
  if (workload == "streamcluster") {
    run_threaded<wl::Streamcluster, wl::StreamclusterParams>(
        spans, root.id(), r, workload, way, dir);
  } else if (workload == "lulesh") {
    run_threaded<wl::Lulesh, wl::LuleshParams>(spans, root.id(), r, workload,
                                               way, dir);
  } else if (workload == "amg") {
    run_threaded<wl::Amg, wl::AmgParams>(spans, root.id(), r, workload, way,
                                         dir);
  } else if (workload == "nw") {
    run_threaded<wl::Nw, wl::NwParams>(spans, root.id(), r, workload, way,
                                       dir);
  } else if (workload == "sweep3d") {
    run_sweep3d(spans, root.id(), r, way, dir);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
}

/// The --whatif path of dcprof_analyze, with its defaults (top 3).
void unit_whatif(Spans& spans, Report& r, const std::vector<std::string>& a) {
  if (a.size() < 2) throw std::invalid_argument("whatif <workload> <dir>");
  Scoped root(spans, "whatif", -1);
  const int select = spans.begin("whatif.select", root.id());
  const analysis::AnalysisResult res =
      analysis::Analyzer(
          analysis::Analyzer::Options{}.add_views(analysis::kViewAdvice))
          .run(a[1]);
  const analysis::AnalysisContext ctx = res.context();
  const analysis::WhatIfRunner runner = wl::make_whatif_runner(a[0]);
  int analyze = -1;
  // The runner may be called from several threads once re-runs go
  // parallel: Spans is thread-safe and `analyze` is fixed before any call.
  analysis::WhatIfEngine engine(
      [&](const analysis::WhatIfSpec& spec) {
        Scoped s(spans, "whatif.rerun", analyze);
        return runner(spec);
      },
      analysis::WhatIfOptions{});
  const std::size_t candidates = engine.candidates(res.merged, ctx).size();
  spans.end(select);
  analyze = spans.begin("whatif.analyze", root.id());
  const std::vector<analysis::WhatIfPrediction> predictions =
      engine.analyze(res.merged, ctx);
  spans.end(analyze);
  r.counts["analysis.whatif_candidates"] = static_cast<double>(candidates);
  r.texts["whatif_table"] = analysis::render_whatif(predictions);
}

void unit_fold(Spans& spans, Report& r, const std::vector<std::string>& a) {
  if (a.size() < 2) throw std::invalid_argument("fold <dir> <merged-out>");
  analysis::AnalysisResult res;
  {
    Scoped root(spans, "fold", -1);
    const double t0 = now_us();
    res = analysis::Analyzer(analysis::Analyzer::Options{}).run(a[0]);
    double t = t0;
    const analysis::StageTimings& st = res.timings;
    for (const auto& [name, ms] :
         {std::pair{"fold.discover", st.discover_ms},
          std::pair{"fold.stream", st.stream_ms},
          std::pair{"fold.combine", st.combine_ms},
          std::pair{"fold.views", st.views_ms}}) {
      spans.add(name, root.id(), t, t + ms * 1e3);
      t += ms * 1e3;
    }
  }
  r.counts["analysis.fold_files"] = static_cast<double>(res.files_read);
  r.counts["analysis.fold_bytes"] = static_cast<double>(res.bytes_streamed);
  r.counts["analysis.fold_skipped"] = static_cast<double>(res.files_skipped);
  write_bytes(a[1], &res.merged);
}

void unit_ingest(Spans& spans, Report& r, const std::vector<std::string>& a) {
  if (a.size() < 3) {
    throw std::invalid_argument("ingest <dir> <checkpoint> <merged-out>");
  }
  analysis::IngestOptions opts;
  opts.checkpoint = a[1];
  opts.checkpoint_every = 0;  // explicit checkpoint() after every 64 folds
  opts.max_files_per_poll = 64;
  opts.claim = true;
  const int root = spans.begin("ingest", -1);
  analysis::IngestService service(fs::path(a[0]), opts);
  for (;;) {
    std::size_t folded = 0;
    {
      Scoped s(spans, "ingest.poll", root);
      folded = service.poll_once();
    }
    {
      Scoped s(spans, "ingest.checkpoint", root);
      service.checkpoint();
    }
    if (folded == 0) break;
  }
  spans.end(root);
  const analysis::IngestStats st = service.stats();
  write_bytes(a[2], service.merged());
  r.counts["analysis.ingest_files"] = static_cast<double>(st.files);
  r.counts["analysis.ingest_checkpoints"] = static_cast<double>(st.checkpoints);
  r.counts["analysis.ingest_skipped"] = static_cast<double>(st.skipped);
}

void unit_aggregate(Report&, const std::vector<std::string>& a) {
  if (a.size() < 2) {
    throw std::invalid_argument("aggregate <checkpoint> <merged-out>");
  }
  analysis::IngestOptions opts;
  opts.checkpoint = a[0];
  opts.claim = false;
  const analysis::IngestService service(fs::path(a[0]).parent_path(), opts);
  if (service.merged() == nullptr) {
    throw std::runtime_error("checkpoint holds no aggregate: " + a[0]);
  }
  write_bytes(a[1], service.merged());
}

/// Times one tool run and reads its peak RSS through wait4. The harness
/// launches tools through this small process because Linux carries a
/// process's resident high-water mark across exec: a child forked straight
/// from the Python harness would report at least the harness's RSS.
int spawn(const std::string& out, char** argv) {
  const auto t0 = std::chrono::steady_clock::now();
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("perfbench_trace: fork");
    return 1;
  }
  if (pid == 0) {
    ::execvp(argv[0], argv);
    std::perror("perfbench_trace: exec");
    ::_exit(127);
  }
  int status = 0;
  struct rusage usage {};
  while (::wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      std::perror("perfbench_trace: wait4");
      return 1;
    }
  }
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  std::ofstream f(out, std::ios::trunc);
  f << "{\"exit\":" << code << ",\"wall_s\":" << json_number(wall)
    << ",\"maxrss_kib\":" << usage.ru_maxrss << "}\n";
  return f ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: perfbench_trace OUT.json RUN "
                 "run|whatif|fold|ingest|aggregate args...\n");
    return 2;
  }
  const std::string out = argv[1];
  const int run = std::atoi(argv[2]);
  const std::string unit = argv[3];
  if (unit == "spawn") {
    if (argc < 5) {
      std::fprintf(stderr, "perfbench_trace: spawn needs a program\n");
      return 2;
    }
    return spawn(out, argv + 4);
  }
  const std::vector<std::string> args(argv + 4, argv + argc);
  Spans spans(run);
  Report report;
  try {
    if (unit == "run") {
      unit_run(spans, report, args);
    } else if (unit == "whatif") {
      unit_whatif(spans, report, args);
    } else if (unit == "fold") {
      unit_fold(spans, report, args);
    } else if (unit == "ingest") {
      unit_ingest(spans, report, args);
    } else if (unit == "aggregate") {
      unit_aggregate(report, args);
    } else {
      std::fprintf(stderr, "perfbench_trace: unknown unit %s\n", unit.c_str());
      return 2;
    }
    write_report(out, spans, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_trace: %s: %s\n", unit.c_str(), e.what());
    return 1;
  }
  return 0;
}
