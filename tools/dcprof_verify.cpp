// dcprof_verify — the differential-verification CLI.
//
// Usage:
//   dcprof_verify [--oracle [all|amg|sweep3d|lulesh|streamcluster|nw]]
//                 [--traces N] [--fuzz N] [--seed S] [--replay S]
//                 [--corpus DIR] [--verbose]
//
// Modes (combinable; no mode flags = a quick default of --traces 10
// --fuzz 100):
//   --oracle       run each named workload twice — production profiler vs
//                  reference oracle — and require byte-identical profiles;
//   --traces N     run N seeded random-trace differentials (fast path vs
//                  de-optimized path vs oracle, plus invariants, merge
//                  algebra, and reduce cross-checks);
//   --fuzz N       run N mutational .dcpf reader cases over the builtin
//                  corpus (plus the .dcpf files of a --corpus DIR);
//   --replay S     re-run exactly the trace differential and fuzz case
//                  for seed S (the seed printed by a failure).
//
// Every failure prints its case seed; exit status is non-zero if any
// check failed.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "cli.h"
#include "core/measurement.h"
#include "verify/differential.h"
#include "verify/fuzz_dcpf.h"
#include "verify/trace_gen.h"
#include "verify/rng.h"

using namespace dcprof;

namespace {

std::vector<std::string> load_corpus_dir(const std::string& dir) {
  std::vector<std::string> out;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".dcpf") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());  // deterministic corpus order
  for (const auto& path : paths) out.push_back(core::read_file(path));
  return out;
}

void print_replay_hint(std::uint64_t seed) {
  std::printf("    replay with: dcprof_verify --replay %llu\n",
              static_cast<unsigned long long>(seed));
}

}  // namespace

int main(int argc, char** argv) {
  bool oracle_mode = false;
  std::string oracle_arg;
  std::uint64_t traces = 0;
  std::uint64_t fuzz = 0;
  std::uint64_t seed = 1;
  std::uint64_t replay_seed = 0;
  std::string corpus_dir;
  bool verbose = false;

  cli::Parser p("dcprof_verify",
                "differential verification: oracle runs, trace "
                "differentials, and .dcpf reader fuzzing");
  p.optional_value("--oracle", &oracle_mode, &oracle_arg,
                   "run production-vs-oracle workload differentials",
                   "all|amg|sweep3d|lulesh|streamcluster|nw");
  p.option("--traces", &traces, "run N seeded random-trace differentials");
  p.option("--fuzz", &fuzz, "run N mutational .dcpf reader cases");
  p.option("--seed", &seed, "base seed for traces/fuzz", "S");
  p.option("--replay", &replay_seed,
           "re-run exactly the case for seed S (printed on failure)", "S");
  p.option("--corpus", &corpus_dir, "extra .dcpf corpus directory", "DIR");
  p.flag("--verbose", &verbose, "print passing cases too");
  if (const auto rc = p.parse(argc, argv)) return *rc;

  std::vector<std::string> oracle_workloads;
  if (oracle_mode && !oracle_arg.empty() && oracle_arg != "all") {
    oracle_workloads.push_back(oracle_arg);
  }
  const bool replay_mode = p.seen("--replay");
  const bool any_mode = oracle_mode || replay_mode || p.seen("--traces") ||
                        p.seen("--fuzz");
  if (!any_mode) {  // quick default
    traces = 10;
    fuzz = 100;
  }

  std::vector<std::string> extra_corpus;
  if (!corpus_dir.empty()) {
    try {
      extra_corpus = load_corpus_dir(corpus_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  int failures = 0;

  if (replay_mode) {
    std::printf("replaying seed %llu\n",
                static_cast<unsigned long long>(replay_seed));
    const verify::TraceReport trace =
        verify::run_trace_differential(replay_seed);
    std::printf("  trace: %s\n", trace.summary().c_str());
    if (!trace.ok()) ++failures;
    std::vector<std::string> corpus = verify::builtin_corpus();
    corpus.insert(corpus.end(), extra_corpus.begin(), extra_corpus.end());
    const verify::FuzzCaseResult fz =
        verify::run_fuzz_case(replay_seed, corpus);
    std::printf("  fuzz: %s%s\n", fz.accepted ? "accepted" : "rejected",
                fz.failures.empty() ? ", contract held" : "");
    for (const auto& f : fz.failures) {
      std::printf("  fuzz FAILURE: %s\n", f.c_str());
      ++failures;
    }
  }

  if (oracle_mode) {
    const std::vector<std::string>& names =
        oracle_workloads.empty() ? verify::workload_names()
                                 : oracle_workloads;
    for (const auto& name : names) {
      try {
        const verify::WorkloadReport report =
            verify::workload_differential(name);
        std::printf("oracle %s %s\n", report.ok() ? "OK  " : "FAIL",
                    report.summary().c_str());
        if (!report.ok()) ++failures;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "oracle %s: error: %s\n", name.c_str(),
                     e.what());
        ++failures;
      }
    }
  }

  if (traces > 0) {
    std::size_t done = 0;
    std::size_t failed = 0;
    for (std::size_t i = 0; i < traces; ++i) {
      const std::uint64_t case_seed = verify::Rng::mix(seed, 1000 + i);
      const verify::TraceReport r =
          verify::run_trace_differential(case_seed);
      ++done;
      if (!r.ok()) {
        ++failed;
        ++failures;
        std::printf("trace FAIL: %s\n", r.summary().c_str());
        print_replay_hint(case_seed);
      } else if (verbose) {
        std::printf("trace ok: %s\n", r.summary().c_str());
      }
    }
    std::printf("traces: %zu run, %zu failed (base seed %llu)\n", done,
                failed, static_cast<unsigned long long>(seed));
  }

  if (fuzz > 0) {
    verify::FuzzOptions opts;
    opts.base_seed = seed;
    opts.count = fuzz;
    opts.verbose = verbose;
    const verify::FuzzReport report = verify::run_fuzz(opts, extra_corpus);
    std::printf("fuzz: %zu cases (%zu accepted, %zu rejected), "
                "%zu failures (base seed %llu)\n",
                report.cases, report.accepted, report.rejected,
                report.failures.size(),
                static_cast<unsigned long long>(seed));
    for (const auto& f : report.failures) {
      std::printf("fuzz FAIL (seed %llu): %s\n",
                  static_cast<unsigned long long>(f.seed), f.what.c_str());
      print_replay_hint(f.seed);
      ++failures;
    }
  }

  if (failures > 0) {
    std::printf("VERIFY FAILED: %d failing checks\n", failures);
    return 1;
  }
  std::printf("verify OK\n");
  return 0;
}
