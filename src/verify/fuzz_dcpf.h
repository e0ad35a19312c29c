// Mutational fuzzing of the `.dcpf` readers. Valid v4 profiles from a
// deterministic builtin corpus (plus any caller-supplied seed files) are
// mutated record- and byte-wise (half of them re-sealed with a valid
// footer, as a buggy writer would), then fed as in-memory bytes — the form
// every production fold reads them in — to every reader entry point:
// framing check, full read, salvaging read, streaming merge. The
// contract under test:
//   * readers reject garbage only via std::runtime_error — never a crash,
//     a different exception type, or (under sanitizers) UB;
//   * read accepts only what check_framing accepts;
//   * read_salvage never throws, and its `clean` equals read accepting;
//   * merge_serialized gets the payload of every framed case and accepts
//     exactly what read accepts;
//   * a merge that throws has folded exactly the salvaged prefix;
//   * any profile a reader *accepts* is structurally sound
//     (invariants.h, non-strict mode).
// One uint64 case seed determines base file + mutations, so every failure
// replays with `dcprof_verify --replay <seed>`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dcprof::verify {

/// Deterministic seed corpus: serialized v4 profiles covering the
/// format's features (empty, multi-class, a cross-rank aggregate as
/// checkpoints embed, string-table-heavy, deep call chains,
/// access-pattern tables). Same bytes on every call.
std::vector<std::string> builtin_corpus();

/// One fuzz failure, replayable by seed.
struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string what;
};

struct FuzzOptions {
  std::uint64_t base_seed = 1;
  std::size_t count = 500;    ///< mutated cases to run
  bool verbose = false;       ///< print each failure as it happens
};

struct FuzzReport {
  std::size_t cases = 0;
  std::size_t accepted = 0;   ///< mutants read still accepted
  std::size_t rejected = 0;   ///< mutants cleanly rejected
  std::vector<FuzzFailure> failures;

  bool ok() const { return failures.empty(); }
};

/// Outcome of one mutated case.
struct FuzzCaseResult {
  bool accepted = false;  ///< read accepted the mutant
  std::vector<std::string> failures;  ///< empty == contract held
};

/// Runs one mutated case, derived entirely from `case_seed` over `corpus`.
FuzzCaseResult run_fuzz_case(std::uint64_t case_seed,
                             const std::vector<std::string>& corpus);

/// Runs `options.count` cases with seeds derived from options.base_seed.
/// `extra_corpus` entries join the builtin corpus as mutation bases.
FuzzReport run_fuzz(const FuzzOptions& options,
                    const std::vector<std::string>& extra_corpus = {});

}  // namespace dcprof::verify
