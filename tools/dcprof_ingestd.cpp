// dcprof_ingestd — the fleet-scale continuous-ingestion daemon.
//
// Usage:
//   dcprof_ingestd DIR[,DIR...]
//     [--checkpoint PATH] [--checkpoint-every N] [--poll-ms N]
//     [--max-files-per-poll N] [--policy strict|skip|quarantine]
//     [--no-claim] [--once | --drain [--idle-polls N]] [--verbose]
//
// Watches the given measurement directories and folds every arriving
// `.dcpf` shard into one incremental aggregate (analysis::IngestService):
// each shard is read whole and framing-checked ahead on helper threads
// (one host thread per hardware thread in all) and merged in listing
// order by the batch Analyzer's own fold (analysis::ReadAhead,
// analysis::fold_shard), the running state
// checkpoints atomically every --checkpoint-every folds, and
// durably-checkpointed shards are retired into <dir>/ingested/. Kill the
// daemon at any point and restart it with the same --checkpoint: it
// resumes exactly where the checkpoint left off.
//
// The daemon runs until SIGINT/SIGTERM (writing a final checkpoint on
// the way out), or exits on its own under --once (a single poll) or
// --drain (after --idle-polls consecutive empty polls — the mode for a
// directory whose writers have finished). On exit it prints the shards,
// bytes, skips and checkpoints it counted and the poll loop's wall time.
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/ingest.h"
#include "cli.h"

using namespace dcprof;

namespace {

namespace fs = std::filesystem;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

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
  p.flag("--verbose", &verbose, "log per-poll activity");
  if (auto rc = p.parse(argc, argv)) return *rc;

  const auto corrupt_policy = analysis::parse_corrupt_policy(policy);
  if (!corrupt_policy) return p.error("unknown --policy '" + policy + "'");

  std::vector<fs::path> dirs;
  for (std::size_t start = 0; start <= dir_arg.size();) {
    const std::size_t comma = dir_arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? dir_arg.size() : comma;
    if (end > start) dirs.emplace_back(dir_arg.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (dirs.empty()) return p.error("no measurement directory given");

  analysis::IngestOptions opts;
  opts.checkpoint = checkpoint.empty() ? dirs.front() / "ingest.dcck"
                                       : fs::path(checkpoint);
  opts.checkpoint_every = static_cast<std::size_t>(checkpoint_every);
  opts.max_files_per_poll = static_cast<std::size_t>(max_files_per_poll);
  opts.corrupt_policy = *corrupt_policy;
  opts.claim = !no_claim;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    analysis::IngestService service(dirs, opts);
    if (service.stats().resumes > 0) {
      std::fprintf(stderr, "dcprof_ingestd: resumed from %s (%llu shards "
                           "already ingested)\n",
                   opts.checkpoint.string().c_str(),
                   static_cast<unsigned long long>(service.stats().files));
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
        if (drain && empty_streak >= idle_polls) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      } else {
        empty_streak = 0;
      }
    }
    const double poll_sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    service.checkpoint();  // final durable state before exiting

    const analysis::IngestStats st = service.stats();
    std::fprintf(stderr,
                 "dcprof_ingestd: %llu shards (%llu bytes) ingested, "
                 "%llu skipped, %llu checkpoints, %.3f s polling\n",
                 static_cast<unsigned long long>(st.files),
                 static_cast<unsigned long long>(st.bytes),
                 static_cast<unsigned long long>(st.skipped),
                 static_cast<unsigned long long>(st.checkpoints),
                 poll_sec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dcprof_ingestd: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
