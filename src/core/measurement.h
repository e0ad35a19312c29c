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
/// on any failure (the temp file is removed on a write/fsync error),
/// including a `path` that exists and is not a regular file (a FIFO,
/// device, directory or symlink), which it leaves untouched.
void write_file_atomic(const std::filesystem::path& path,
                       std::string_view bytes);

/// Reads the whole of `path` into memory: open, fstat the opened
/// descriptor to size the buffer, then read() to the end (EINTR-safe).
/// The bytes come from the inode that was opened, so a file replaced by
/// rename mid-read is read whole as it was; one that shrinks yields a
/// short buffer (which a `.dcpf` framing check then rejects). Throws
/// std::runtime_error naming the file on any failure.
std::string read_file(const std::filesystem::path& path);

/// read_file into `bytes`, keeping its capacity: a caller that reads
/// many files into one buffer allocates only for a larger file. What
/// `bytes` holds after a throw is unspecified.
void read_file(const std::filesystem::path& path, std::string& bytes);

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

/// The `.dcpf` profile files in `dir`, as full path strings (`dir`
/// joined with each file name) sorted as strings. Every entry shares
/// the `dir/` prefix, so that is the file-name order every consumer
/// folds in. Strings, not `std::filesystem::path`s: a path also carries
/// a parsed component list, several times the string's heap, and a
/// fleet directory lists ten thousand shards; callers build a path for
/// the one shard they are working on. Skips anything that is not a
/// plausible profile: subdirectories (including `quarantine/` and
/// `ingested/`), the atomic writer's temp-file leftovers, and editor
/// backup/lock droppings (`.#file.dcpf`, `#file.dcpf#`, `file.dcpf~`).
/// Robust against concurrent mutation of the directory (racing writers,
/// a racing quarantine/claim): entries that vanish mid-listing are
/// skipped, not thrown. Throws std::runtime_error if the directory does
/// not exist.
std::vector<std::string> list_profile_files(const std::filesystem::path& dir);

/// Reads one profile file (read_file, then ThreadProfile::read: the
/// framing check, then the parse of the payload). Throws
/// std::runtime_error naming the file on open failure, truncation,
/// checksum mismatch, an unsupported version or header, or a payload
/// the records do not fill exactly.
ThreadProfile read_profile_file(const std::filesystem::path& path);

/// Moves `file` into `dir`'s quarantine subdirectory (created on first
/// use) and returns the path actually used: when a previously
/// quarantined file of the same name already exists, the destination is
/// disambiguated with a numeric suffix (`<name>.1`, `<name>.2`, ...)
/// instead of clobbering the earlier copy. Throws std::runtime_error
/// naming the file if the move fails.
std::filesystem::path quarantine_profile_file(
    const std::filesystem::path& dir, const std::filesystem::path& file);

/// Claims `file` for ingestion by moving it into `dir`'s `ingested/`
/// subdirectory and returns its new path — or
/// std::nullopt when `file` itself is gone (a concurrent claimer or
/// cleanup won the race; not an error). The ingestion daemon calls this
/// only after the shard's contribution has been durably checkpointed,
/// so a crash between ingest and claim merely re-ingests an
/// already-manifested file (idempotent), never loses one. Throws
/// std::runtime_error naming the file and `ingested/` on any other
/// failure — `ingested/` cannot be created, is a dangling link, or the
/// move fails while `file` is still there — because a shard that stays
/// listed after its manifest entry is dropped would be folded again on
/// every poll. `ingested/` is created only when the rename fails for
/// want of it (the first claim, or one after it was removed), so a
/// claim is one rename.
std::optional<std::filesystem::path> claim_profile_file(
    const std::filesystem::path& dir, const std::filesystem::path& file);

/// Reads `dir`'s structure file whole (read_file) and parses it. Throws
/// std::runtime_error naming the directory if the file is missing or
/// unreadable, and naming the file if it is malformed.
binfmt::StructureData read_structure_file(const std::filesystem::path& dir);

}  // namespace dcprof::core
