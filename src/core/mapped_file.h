// Read-only memory-mapped file: the zero-copy byte source behind every
// `.dcpf` reader — analysis::fold_shard (the Analyzer's stream stage and
// the ingestion daemon), core::read_profile_file*, and checkpoint loads.
// Mapping a shard instead of streaming it into a heap buffer removes one
// full copy of every file from the fold: `ThreadProfile::scan`/`read`
// and `merge_serialized` all parse a `std::string_view` over the mapped
// bytes directly.
//
// Concurrency contract: files in a measurement directory are published
// by atomic rename (see core/measurement.h), so a mapping always covers
// one complete, immutable inode. A racing writer replacing the file
// re-links the *name*; the mapping pins the old inode and stays valid
// until the MappedFile is destroyed.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string_view>

namespace dcprof::core {

class MappedFile {
 public:
  /// Maps `path` read-only. Throws std::runtime_error naming the file on
  /// open/stat/map failure. An empty file maps to an empty view (no
  /// mmap call: POSIX rejects zero-length mappings).
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// The file's bytes. Valid until this object is destroyed or
  /// moved-from; never reallocates (the view is the page cache itself).
  std::string_view bytes() const {
    return {static_cast<const char*>(data_), size_};
  }
  std::size_t size() const { return size_; }

 private:
  void unmap() noexcept;

  void* data_ = nullptr;   // nullptr for the empty mapping
  std::size_t size_ = 0;
};

}  // namespace dcprof::core
