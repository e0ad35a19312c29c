// Measurement-directory I/O: the handoff between the online profiler
// ("hpcrun") and the post-mortem analyzer ("hpcprof"). A measurement
// directory holds one structure file plus one profile file per
// rank/thread:
//
//   <dir>/structure.dcst
//   <dir>/profile-<rank>-<tid>.dcpf
//   <dir>/quarantine/            (corrupt profiles moved by the analyzer)
//   <dir>/ingested/              (shards claimed by the ingestion daemon)
//
// Every file is written crash-safely: serialize to a uniquely-named
// `<name>.tmp.<pid>.<seq>`, fsync, then atomically rename over the final
// name. A measurement process killed mid-write-out leaves at most a
// stale temp file (which readers ignore), never a truncated file under a
// final `.dcpf` name — and because the temp name is unique per writer,
// concurrent writers racing on the same target each publish their own
// complete bytes instead of tearing a shared temp file.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "binfmt/structure.h"
#include "core/profile.h"

namespace dcprof::core {

/// Name of the subdirectory the analyzer moves corrupt profiles into.
inline constexpr const char* kQuarantineDirName = "quarantine";

/// Name of the subdirectory the ingestion daemon moves fully-ingested
/// (and durably checkpointed) shards into.
inline constexpr const char* kIngestedDirName = "ingested";

/// Writes `bytes` to `path` crash-safely: the data lands in a
/// uniquely-named `<path>.tmp.<pid>.<seq>` first, is fsync'd, and is
/// atomically renamed onto `path`. Safe to call concurrently for the
/// same target — each writer owns its temp file, so the last rename
/// wins with complete bytes. Throws std::runtime_error naming the file
/// on any failure (the temp file is removed on a write/fsync error).
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes);

/// Writes profiles + structure into `dir` (created if absent), each file
/// via `write_file_atomic`. Returns the total bytes written.
std::uint64_t write_measurement_dir(const std::filesystem::path& dir,
                                    const std::vector<ThreadProfile>& profiles,
                                    const binfmt::StructureData& structure);

// --- Streaming primitives --------------------------------------------
// The supported read surface: list the files once, then read them one
// at a time (bounding memory to one profile per reader). Callers that
// want everything at once loop over `list_profile_files` themselves;
// the all-at-once `read_measurement_dir` wrapper is gone.

/// The `.dcpf` profile files in `dir`, sorted by path so every consumer
/// sees the same deterministic order. Skips anything that is not a
/// plausible profile: subdirectories (including `quarantine/` and
/// `ingested/`), the atomic writer's temp-file leftovers, and editor
/// backup/lock droppings (`.#file.dcpf`, `#file.dcpf#`, `file.dcpf~`).
/// Robust against concurrent mutation of the directory (racing writers,
/// a racing quarantine/claim): entries that vanish mid-listing are
/// skipped, not thrown. Throws std::runtime_error if the directory does
/// not exist.
std::vector<std::filesystem::path> list_profile_files(
    const std::filesystem::path& dir);

/// Reads one profile file (mmap'd via core::MappedFile, parsed in
/// place). Throws std::runtime_error naming the file on open failure,
/// truncation, checksum mismatch, an unsupported version, or trailing
/// bytes after the serialized profile.
ThreadProfile read_profile_file(const std::filesystem::path& path);

/// Recovery-mode read: salvages the valid record prefix of a truncated
/// or corrupt profile file instead of throwing (see
/// ThreadProfile::read_salvage). Only an unopenable file still throws.
/// `out` reports kept/dropped records and the failure, if any.
ThreadProfile read_profile_file_salvage(const std::filesystem::path& path,
                                        SalvageResult& out);

/// Moves `file` into `dir`'s quarantine subdirectory (created on first
/// use) and returns the path actually used: when a previously
/// quarantined file of the same name already exists, the destination is
/// disambiguated with a numeric suffix (`<name>.1`, `<name>.2`, ...)
/// instead of clobbering the earlier copy. Throws std::runtime_error
/// naming the file if the move fails.
std::filesystem::path quarantine_profile_file(
    const std::filesystem::path& dir, const std::filesystem::path& file);

/// Claims `file` for ingestion by moving it into `dir`'s `ingested/`
/// subdirectory (created on first use) and returns its new path — or
/// std::nullopt when the file vanished first (a concurrent claimer or
/// cleanup won the race; not an error). The ingestion daemon calls this
/// only after the shard's contribution has been durably checkpointed,
/// so a crash between ingest and claim merely re-ingests an
/// already-manifested file (idempotent), never loses one. Throws
/// std::runtime_error naming the file on any other failure.
std::optional<std::filesystem::path> claim_profile_file(
    const std::filesystem::path& dir, const std::filesystem::path& file);

/// Reads `dir`'s structure file. Throws std::runtime_error naming the
/// directory if the file is missing or unreadable.
binfmt::StructureData read_structure_file(const std::filesystem::path& dir);

}  // namespace dcprof::core
