#include "core/measurement.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/registry.h"
#include "obs/tracer.h"

namespace dcprof::core {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const std::string& what, const fs::path& path) {
  throw std::runtime_error(what + " " + path.string() + ": " +
                           std::strerror(errno));
}

/// Closes a descriptor when its scope exits, by return or by exception
/// (a failed buffer allocation included).
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() { ::close(fd_); }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  int fd_;
};

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
  // rename() replaces whatever the target is: a FIFO, a device node, or
  // a symlink itself rather than the file it points to. Only a regular
  // file (or nothing) may be replaced.
  struct stat st = {};
  if (::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode)) {
    throw std::runtime_error("cannot write " + path.string() +
                             ": not a regular file");
  }
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

std::string read_file(const fs::path& path) {
  std::string bytes;
  read_file(path, bytes);
  return bytes;
}

void read_file(const fs::path& path, std::string& bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("cannot open", path);
  const FdCloser closer(fd);
  struct stat st = {};
  if (::fstat(fd, &st) != 0) throw_errno("cannot stat", path);
  const auto size = static_cast<std::size_t>(st.st_size);
  // A larger file gets a buffer of its own size: growing this one would
  // copy its bytes and could double its capacity.
  if (size > bytes.capacity()) std::string().swap(bytes);
  bytes.resize(size);
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("cannot read", path);
    }
    if (n == 0) break;  // shrank since the fstat
    got += static_cast<std::size_t>(n);
  }
  bytes.resize(got);
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
    const std::string data = structure.serialize();
    write_file_atomic(dir / "structure.dcst", data);
    bytes += data.size();
  }
  for (const auto& p : profiles) {
    const std::string name = "profile-" + std::to_string(p.rank) + "-" +
                             std::to_string(p.tid) + ".dcpf";
    const std::string data = p.serialize();
    write_file_atomic(dir / name, data);
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

std::vector<std::string> list_profile_files(const fs::path& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("no measurement directory at " + dir.string());
  }
  std::vector<std::string> profile_paths;
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
    profile_paths.push_back(entry.path().string());
  }
  std::sort(profile_paths.begin(), profile_paths.end());
  return profile_paths;
}

ThreadProfile read_profile_file(const fs::path& path) {
  const std::string bytes = read_file(path);
  try {
    return ThreadProfile::read(bytes);
  } catch (const std::exception& e) {
    throw std::runtime_error(path.string() + ": " + e.what());
  }
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
  const fs::path dest = cdir / file.filename();
  // ENOENT names either end of the rename. Only a source that is gone
  // means another claimer (or a cleanup) moved the file first: losing
  // that race is a normal outcome, not an error.
  const auto source_gone = [&] {
    std::error_code ec;
    return fs::symlink_status(file, ec).type() == fs::file_type::not_found;
  };
  // The rename comes first: `ingested/` exists for every claim but the
  // first, so a claim costs one rename, not a stat and a rename.
  std::error_code ec;
  fs::rename(file, dest, ec);
  if (ec == std::errc::no_such_file_or_directory && !source_gone()) {
    fs::create_directories(cdir, ec);
    if (!ec) fs::rename(file, dest, ec);
  }
  if (!ec) return dest;
  if (ec == std::errc::no_such_file_or_directory && source_gone()) {
    return std::nullopt;
  }
  throw std::runtime_error("cannot claim " + file.string() + " into " +
                           cdir.string() + ": " + ec.message());
}

binfmt::StructureData read_structure_file(const fs::path& dir) {
  const fs::path structure_path = dir / "structure.dcst";
  std::string bytes;
  try {
    bytes = read_file(structure_path);
  } catch (const std::exception& e) {
    throw std::runtime_error("no structure file in " + dir.string() + ": " +
                             e.what());
  }
  try {
    return binfmt::StructureData::read(bytes);
  } catch (const std::exception& e) {
    throw std::runtime_error(structure_path.string() + ": " + e.what());
  }
}

}  // namespace dcprof::core
