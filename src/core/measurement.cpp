#include "core/measurement.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/mapped_file.h"
#include "obs/registry.h"
#include "obs/tracer.h"

namespace dcprof::core {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const std::string& what, const fs::path& path) {
  throw std::runtime_error(what + " " + path.string() + ": " +
                           std::strerror(errno));
}

/// True for names a measurement directory accumulates that are not
/// profiles: atomic-writer leftovers and editor backup/lock files.
bool is_non_profile_name(const std::string& name) {
  if (name.empty()) return true;
  if (name.front() == '.' || name.front() == '#') return true;  // .#lock, .swp
  if (name.back() == '~' || name.back() == '#') return true;    // backups
  return false;
}

}  // namespace

void write_file_atomic(const fs::path& path, std::string_view bytes) {
  // The temp name must be unique per writer: with a shared `<path>.tmp`,
  // two concurrent writers to the same target (a fleet of measured
  // ranks, or a daemon checkpoint racing a late writer) interleave their
  // write/fsync/rename on one file and can publish torn bytes. pid
  // disambiguates processes, the counter disambiguates threads.
  static std::atomic<std::uint64_t> tmp_seq{0};
  const fs::path tmp = path.string() + ".tmp." + std::to_string(::getpid()) +
                       "." +
                       std::to_string(tmp_seq.fetch_add(
                           1, std::memory_order_relaxed));
  // POSIX fd I/O: std::ofstream cannot fsync, and without the fsync a
  // crash after rename could still surface an empty file.
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("cannot create", tmp);
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("cannot write", tmp);
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("cannot fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("cannot close", tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    ::unlink(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp.string() + " to " +
                             path.string() + ": " + ec.message());
  }
}

std::uint64_t write_measurement_dir(const fs::path& dir,
                                    const std::vector<ThreadProfile>& profiles,
                                    const binfmt::StructureData& structure) {
  OBS_SPAN_V("measure.write_out", "profiles", profiles.size());
  obs::Registry& reg = obs::Registry::global();
  obs::Counter write_ns = reg.counter("io.write_ns");
  obs::Counter profile_bytes = reg.counter("io.profile_bytes");
  obs::ScopedNs timer(write_ns);
  fs::create_directories(dir);
  std::uint64_t bytes = 0;
  {
    std::ostringstream buf;
    structure.write(buf);
    const std::string data = std::move(buf).str();
    write_file_atomic(dir / "structure.dcst", data);
    bytes += data.size();
  }
  for (const auto& p : profiles) {
    std::ostringstream name;
    name << "profile-" << p.rank << "-" << p.tid << ".dcpf";
    std::ostringstream buf;
    p.write(buf);
    const std::string data = std::move(buf).str();
    write_file_atomic(dir / name.str(), data);
    bytes += data.size();
  }
  // Make the renames themselves durable before reporting success.
  if (const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY); dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  profile_bytes.add(bytes);
  return bytes;
}

std::vector<fs::path> list_profile_files(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("no measurement directory at " + dir.string());
  }
  std::vector<fs::path> profile_paths;
  // The listing runs while writers are still publishing and a concurrent
  // analyzer's quarantine/cleanup may be unlinking entries, so every
  // filesystem call uses the error_code overloads: a vanished entry is
  // skipped, never thrown out of the iteration.
  fs::directory_iterator it(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot list measurement directory " +
                             dir.string() + ": " + ec.message());
  }
  for (const fs::directory_iterator end; it != end; it.increment(ec)) {
    if (ec) {
      // The iterator is unusable after a failed increment (the directory
      // itself went away mid-walk); return what was seen.
      break;
    }
    const fs::directory_entry& entry = *it;
    // Subdirectories (quarantine/, ingested/) and special files are
    // never profiles; the extension check drops the atomic writer's
    // `*.dcpf.tmp.<pid>.<seq>` leftovers and other strays, and the name
    // check drops editor lock files like `.#profile-0-0.dcpf`, whose
    // extension alone looks plausible.
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".dcpf") continue;
    if (is_non_profile_name(entry.path().filename().string())) continue;
    profile_paths.push_back(entry.path());
  }
  std::sort(profile_paths.begin(), profile_paths.end());
  return profile_paths;
}

ThreadProfile read_profile_file(const fs::path& path) {
  const MappedFile map(path);
  try {
    return ThreadProfile::read(map.bytes());
  } catch (const std::exception& e) {
    throw std::runtime_error(path.string() + ": " + e.what());
  }
}

ThreadProfile read_profile_file_salvage(const fs::path& path,
                                        SalvageResult& out) {
  const MappedFile map(path);
  ThreadProfile p = ThreadProfile::read_salvage(map.bytes(), out);
  if (!out.error.empty()) out.error = path.string() + ": " + out.error;
  return p;
}

fs::path quarantine_profile_file(const fs::path& dir, const fs::path& file) {
  const fs::path qdir = dir / kQuarantineDirName;
  std::error_code ec;
  fs::create_directories(qdir, ec);
  // fs::rename clobbers an existing destination, so a re-quarantine of a
  // rewritten shard under the same name would silently destroy the
  // first quarantined copy (the forensic evidence). Probe for a free
  // name — `<name>`, then `<name>.1`, `<name>.2`, ... — and return the
  // path actually used. The exists/rename window is benign: losing that
  // race costs one clobber among quarantined copies of the same shard,
  // and quarantine is already a single-analyzer-at-a-time operation.
  fs::path dest = qdir / file.filename();
  for (unsigned k = 1; fs::exists(dest, ec); ++k) {
    dest = qdir / (file.filename().string() + "." + std::to_string(k));
  }
  fs::rename(file, dest, ec);
  if (ec) {
    throw std::runtime_error("cannot quarantine " + file.string() + ": " +
                             ec.message());
  }
  return dest;
}

std::optional<fs::path> claim_profile_file(const fs::path& dir,
                                           const fs::path& file) {
  const fs::path cdir = dir / kIngestedDirName;
  std::error_code ec;
  fs::create_directories(cdir, ec);
  const fs::path dest = cdir / file.filename();
  fs::rename(file, dest, ec);
  if (!ec) return dest;
  if (ec == std::errc::no_such_file_or_directory) {
    // Another claimer (or a cleanup) moved the file first: losing the
    // race is a normal outcome, not an error.
    return std::nullopt;
  }
  throw std::runtime_error("cannot claim " + file.string() + ": " +
                           ec.message());
}

binfmt::StructureData read_structure_file(const fs::path& dir) {
  const fs::path structure_path = dir / "structure.dcst";
  std::ifstream in(structure_path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("no structure file in " + dir.string());
  }
  try {
    return binfmt::StructureData::read(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(structure_path.string() + ": " + e.what());
  }
}

}  // namespace dcprof::core
