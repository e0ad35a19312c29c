// dcprof_ingestd — the fleet-scale continuous-ingestion daemon.
//
// Usage:
//   dcprof_ingestd DIR [DIR...]
//     [--checkpoint PATH] [--checkpoint-every N] [--poll-ms N]
//     [--max-files-per-poll N] [--policy strict|skip|quarantine]
//     [--no-claim] [--once | --drain [--idle-polls N]]
//     [--simulate-shards N] [--arrival-rate R] [--seed S]
//     [--verify-batch] [--bench-compare] [--stats-json PATH] [--verbose]
//
// Watches the given measurement directories and folds every arriving
// `.dcpf` shard into one incremental aggregate (analysis::IngestService):
// each shard is read whole, framing-checked and merged by the batch
// Analyzer's own fold (analysis::fold_shard), the running state
// checkpoints atomically every --checkpoint-every folds, and
// durably-checkpointed shards are retired into <dir>/ingested/. Kill the
// daemon at any point and restart it with the same --checkpoint: it
// resumes exactly where the checkpoint left off.
//
// The daemon runs until SIGINT/SIGTERM (writing a final checkpoint on
// the way out), or exits on its own under --once (a single poll) or
// --drain (after --idle-polls consecutive empty polls — the mode the
// synthetic driver and the benchmarks use).
//
// --simulate-shards N starts an in-process synthetic fleet: a writer
// thread that publishes N deterministic shards (plus a structure file)
// into the first DIR through the same atomic-rename path the real
// measurement runtime uses, at --arrival-rate R shards/sec (0 = as fast
// as possible). With --verify-batch the daemon then proves its aggregate
// byte-identical to a one-shot batch Analyzer::run over the same
// directory, and --bench-compare times that batch run for a
// throughput-ratio benchmark (both imply the shards must still be in
// place, so they force --no-claim).
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ingest.h"
#include "analysis/pipeline.h"
#include "binfmt/structure.h"
#include "cli.h"
#include "core/measurement.h"
#include "core/profile.h"

using namespace dcprof;

namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

std::string serialized(const core::ThreadProfile& p) {
  std::ostringstream out;
  p.write(out);
  return std::move(out).str();
}

/// Deterministic synthetic shard #i: a small heap/static/unknown CCT
/// whose shape and metrics vary with (seed, i), so a fleet of them
/// exercises string interning, CCT growth, and metric accumulation in
/// the merge.
core::ThreadProfile make_shard(std::uint64_t seed, std::uint64_t i) {
  using core::Cct;
  using core::Metric;
  using core::MetricVec;
  using core::NodeKind;
  using core::StorageClass;

  const std::uint64_t mix = seed * 0x9e3779b97f4a7c15ull + i;
  core::ThreadProfile p;
  p.rank = static_cast<std::int32_t>(i / 8);
  p.tid = static_cast<std::int32_t>(i % 8);

  auto metrics = [](std::uint64_t samples, std::uint64_t remote,
                    std::uint64_t latency) {
    MetricVec m;
    m[Metric::kSamples] = samples;
    m[Metric::kRemoteDram] = remote;
    m[Metric::kLatency] = latency;
    return m;
  };

  Cct& heap = p.cct(StorageClass::kHeap);
  for (std::uint64_t v = 0; v <= mix % 3; ++v) {
    auto cur = heap.child(Cct::kRootId, NodeKind::kCallSite, 0x10 + v);
    cur = heap.child(cur, NodeKind::kAllocPoint, 0x99 + (mix % 7));
    cur = heap.child(cur, NodeKind::kVarData, 0);
    heap.add_metrics(heap.child(cur, NodeKind::kLeafInstr, 0x500 + v),
                     metrics(i % 100 + 1, mix % 5, 10 * (i % 100 + 1)));
  }

  Cct& stat = p.cct(StorageClass::kStatic);
  const auto d = stat.child(
      Cct::kRootId, NodeKind::kVarStatic,
      p.strings.intern("g_table_" + std::to_string(mix % 16)));
  stat.add_metrics(stat.child(d, NodeKind::kLeafInstr, 0x600),
                   metrics(2, 1, 7));

  Cct& unknown = p.cct(StorageClass::kUnknown);
  unknown.add_metrics(
      unknown.child(Cct::kRootId, NodeKind::kLeafInstr, 0x900 + mix % 4),
      metrics(mix % 3 + 1, 0, i % 50));
  return p;
}

/// The synthetic fleet: publishes `count` shards into `dir` through the
/// same write_file_atomic path the measurement runtime uses, in
/// ascending zero-padded name order (so arrival order matches the
/// sorted fold order and the aggregate stays byte-identical to a batch
/// run). Writes the structure file first so the directory is a complete
/// measurement directory.
void run_fleet(const fs::path& dir, std::uint64_t count, double rate,
               std::uint64_t seed, std::atomic<bool>* done) {
  fs::create_directories(dir);
  {
    binfmt::ModuleRegistry no_modules;
    std::ostringstream buf;
    binfmt::StructureData::capture(no_modules).write(buf);
    core::write_file_atomic(dir / "structure.dcst", std::move(buf).str());
  }
  const auto delay =
      rate > 0 ? std::chrono::duration<double>(1.0 / rate)
               : std::chrono::duration<double>(0);
  for (std::uint64_t i = 0; i < count && !g_stop; ++i) {
    char name[40];
    std::snprintf(name, sizeof(name), "profile-%06llu-0.dcpf",
                  static_cast<unsigned long long>(i));
    core::write_file_atomic(dir / name, serialized(make_shard(seed, i)));
    if (rate > 0) std::this_thread::sleep_for(delay);
  }
  done->store(true, std::memory_order_release);
}

std::uint64_t peak_rss_kb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // KiB on Linux
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir_arg;
  std::string checkpoint;
  std::uint64_t checkpoint_every = 64;
  std::uint64_t poll_ms = 50;
  std::uint64_t max_files_per_poll = 0;
  std::string policy = "skip";
  bool no_claim = false;
  bool once = false;
  bool drain = false;
  std::uint64_t idle_polls = 3;
  std::uint64_t simulate_shards = 0;
  std::string arrival_rate = "0";
  std::uint64_t seed = 1;
  bool simulate_only = false;
  bool verify_batch = false;
  bool bench_compare = false;
  std::string stats_json;
  bool verbose = false;

  cli::Parser p("dcprof_ingestd",
                "continuously ingests .dcpf shards from measurement "
                "directories into a checkpointed aggregate");
  p.positional("dirs", &dir_arg,
               "measurement directory to watch (comma-separated for more "
               "than one, polled in the given order)");
  p.option("--checkpoint", &checkpoint,
           "checkpoint file (default <dir>/ingest.dcck)", "PATH");
  p.option("--checkpoint-every", &checkpoint_every,
           "folds between automatic checkpoints (0 = only on exit)");
  p.option("--poll-ms", &poll_ms, "sleep between empty polls");
  p.option("--max-files-per-poll", &max_files_per_poll,
           "bound folds per poll (0 = drain the listing)");
  p.option("--policy", &policy, "corrupt-shard policy", "strict|skip|quarantine");
  p.flag("--no-claim", &no_claim,
         "leave ingested shards in place instead of moving them to "
         "<dir>/ingested/");
  p.flag("--once", &once, "run a single poll, checkpoint, and exit");
  p.flag("--drain", &drain,
         "exit after --idle-polls consecutive empty polls");
  p.option("--idle-polls", &idle_polls,
           "empty polls that count as drained (with --drain)");
  p.option("--simulate-shards", &simulate_shards,
           "run a synthetic fleet writing N shards into the first dir");
  p.option("--arrival-rate", &arrival_rate,
           "synthetic fleet shards/sec (0 = unthrottled)", "R");
  p.option("--seed", &seed, "synthetic fleet content seed");
  p.flag("--simulate-only", &simulate_only,
         "write the synthetic shards and exit without ingesting (to "
         "pre-build a corpus for throughput benchmarks)");
  p.flag("--verify-batch", &verify_batch,
         "after draining, require the aggregate byte-identical to a "
         "one-shot batch analysis (forces --no-claim)");
  p.flag("--bench-compare", &bench_compare,
         "after draining, time a batch Analyzer::run over the same "
         "shards (forces --no-claim)");
  p.option("--stats-json", &stats_json, "write final stats as JSON", "PATH");
  p.flag("--verbose", &verbose, "log per-poll activity");
  if (auto rc = p.parse(argc, argv)) return *rc;

  analysis::CorruptPolicy corrupt_policy;
  if (policy == "strict") {
    corrupt_policy = analysis::CorruptPolicy::kStrict;
  } else if (policy == "skip") {
    corrupt_policy = analysis::CorruptPolicy::kSkip;
  } else if (policy == "quarantine") {
    corrupt_policy = analysis::CorruptPolicy::kQuarantine;
  } else {
    return p.error("unknown --policy '" + policy + "'");
  }
  const double rate = std::strtod(arrival_rate.c_str(), nullptr);

  std::vector<fs::path> dirs;
  for (std::size_t start = 0; start <= dir_arg.size();) {
    const std::size_t comma = dir_arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? dir_arg.size() : comma;
    if (end > start) dirs.emplace_back(dir_arg.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (dirs.empty()) return p.error("no measurement directory given");

  if (verify_batch || bench_compare) no_claim = true;

  analysis::IngestOptions opts;
  opts.checkpoint = checkpoint.empty() ? dirs.front() / "ingest.dcck"
                                       : fs::path(checkpoint);
  opts.checkpoint_every = static_cast<std::size_t>(checkpoint_every);
  opts.max_files_per_poll = static_cast<std::size_t>(max_files_per_poll);
  opts.corrupt_policy = corrupt_policy;
  opts.claim = !no_claim;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  if (simulate_only) {
    if (simulate_shards == 0) {
      return p.error("--simulate-only needs --simulate-shards N");
    }
    std::atomic<bool> done{false};
    run_fleet(dirs.front(), simulate_shards, rate, seed, &done);
    std::fprintf(stderr, "dcprof_ingestd: wrote %llu synthetic shards to %s\n",
                 static_cast<unsigned long long>(simulate_shards),
                 dirs.front().string().c_str());
    return 0;
  }

  try {
    analysis::IngestService service(dirs, opts);
    if (service.stats().resumes > 0) {
      std::fprintf(stderr, "dcprof_ingestd: resumed from %s (%llu shards "
                           "already ingested)\n",
                   opts.checkpoint.string().c_str(),
                   static_cast<unsigned long long>(service.stats().files));
    }

    std::atomic<bool> fleet_done{simulate_shards == 0};
    std::thread fleet;
    if (simulate_shards > 0) {
      fleet = std::thread(run_fleet, dirs.front(), simulate_shards, rate,
                          seed, &fleet_done);
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::uint64_t empty_streak = 0;
    while (!g_stop) {
      const std::size_t folded = service.poll_once();
      if (verbose && folded > 0) {
        std::fprintf(stderr, "dcprof_ingestd: folded %zu shard(s), %llu "
                             "total\n",
                     folded,
                     static_cast<unsigned long long>(service.stats().files));
      }
      if (once) break;
      if (folded == 0) {
        ++empty_streak;
        if (drain && empty_streak >= idle_polls &&
            fleet_done.load(std::memory_order_acquire)) {
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      } else {
        empty_streak = 0;
      }
    }
    const double ingest_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (fleet.joinable()) fleet.join();
    service.checkpoint();  // final durable state before exiting
    // Capture before any batch comparison runs in this process, so the
    // figure reflects the daemon alone.
    const std::uint64_t rss_kb = peak_rss_kb();

    const analysis::IngestStats st = service.stats();
    std::fprintf(stderr,
                 "dcprof_ingestd: %llu shards (%llu bytes) ingested, "
                 "%llu skipped, %llu checkpoints, %.0f shards/sec, "
                 "peak rss %llu KiB\n",
                 static_cast<unsigned long long>(st.files),
                 static_cast<unsigned long long>(st.bytes),
                 static_cast<unsigned long long>(st.skipped),
                 static_cast<unsigned long long>(st.checkpoints),
                 service.shards_per_sec(),
                 static_cast<unsigned long long>(rss_kb));

    // Batch comparison: the pre-daemon way to the same aggregate.
    double batch_sec = 0;
    std::uint64_t batch_files = 0;
    std::string batch_bytes;
    if (verify_batch || bench_compare) {
      const analysis::Analyzer batch(
          analysis::Analyzer::Options{}.with_workers(1).with_views(
              analysis::kViewNone));
      const auto b0 = std::chrono::steady_clock::now();
      analysis::AnalysisResult res = batch.run(dirs.front());
      batch_sec = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - b0)
                      .count();
      batch_files = res.files_read;
      batch_bytes = serialized(res.merged);
    }
    if (verify_batch) {
      if (!service.merged()) {
        std::fprintf(stderr, "dcprof_ingestd: verify FAILED: no aggregate\n");
        return 1;
      }
      if (serialized(*service.merged()) != batch_bytes) {
        std::fprintf(stderr,
                     "dcprof_ingestd: verify FAILED: aggregate differs "
                     "from batch Analyzer::run\n");
        return 1;
      }
      std::fprintf(stderr, "dcprof_ingestd: verify OK: aggregate "
                           "byte-identical to batch analysis\n");
    }

    if (!stats_json.empty()) {
      const double ingest_rate =
          ingest_sec > 0 ? static_cast<double>(st.files) / ingest_sec : 0;
      const double batch_rate =
          batch_sec > 0 ? static_cast<double>(batch_files) / batch_sec : 0;
      std::ofstream out(stats_json, std::ios::trunc);
      out << "{\n"
          << "  \"shards\": " << st.files << ",\n"
          << "  \"bytes\": " << st.bytes << ",\n"
          << "  \"skipped\": " << st.skipped << ",\n"
          << "  \"checkpoints\": " << st.checkpoints << ",\n"
          << "  \"resumes\": " << st.resumes << ",\n"
          << "  \"claimed\": " << st.claimed << ",\n"
          << "  \"elapsed_sec\": " << ingest_sec << ",\n"
          << "  \"shards_per_sec\": " << ingest_rate << ",\n"
          << "  \"sustained_shards_per_sec\": " << service.shards_per_sec()
          << ",\n"
          << "  \"peak_rss_kb\": " << rss_kb << ",\n"
          << "  \"batch_elapsed_sec\": " << batch_sec << ",\n"
          << "  \"batch_shards_per_sec\": " << batch_rate << ",\n"
          << "  \"ingest_vs_batch\": "
          << (batch_rate > 0 ? service.shards_per_sec() / batch_rate : 0)
          << ",\n"
          << "  \"cores\": " << std::thread::hardware_concurrency() << ",\n"
          << "  \"build_type\": \"" << DCPROF_BUILD_TYPE << "\"\n}\n";
      if (!out) {
        std::fprintf(stderr, "dcprof_ingestd: cannot write %s\n",
                     stats_json.c_str());
        return 1;
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcprof_ingestd: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
