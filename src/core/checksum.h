// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte buffers — the
// integrity check framing every `.dcpf` profile file and `.dcck`
// checkpoint. The polynomial alone fixes the value, so every host writes
// and accepts the same stored CRCs. `crc32c` picks its implementation
// once per process from CPUID: the SSE4.2 CRC32 instruction (8 bytes per
// step) on x86-64 CPUs that report SSE4.2, else the portable slice-by-8
// tables. Used only at profile write-out and analysis read-in (never on
// the per-sample hot path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace dcprof::core {

/// CRC32C of `len` bytes at `data`.
std::uint32_t crc32c(const void* data, std::size_t len);
inline std::uint32_t crc32c(std::string_view bytes) {
  return crc32c(bytes.data(), bytes.size());
}

/// The slice-by-8 table implementation on every host: the only path on
/// CPUs without SSE4.2, and the reference the hardware path is tested
/// against.
std::uint32_t crc32c_slice8(const void* data, std::size_t len);

}  // namespace dcprof::core
