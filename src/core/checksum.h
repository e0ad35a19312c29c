// CRC32C (Castagnoli, polynomial 0x1EDC6F41) over byte buffers, and the
// footer it seals every `.dcpf` profile file and `.dcck` checkpoint
// with. The polynomial alone fixes the value, so every host writes and
// accepts the same stored CRCs. `crc32c` picks its implementation once
// per process from CPUID: the SSE4.2 CRC32 instruction (8 bytes per
// step) on x86-64 CPUs that report SSE4.2, else the portable slice-by-8
// tables. Used only at profile write-out and analysis read-in (never on
// the per-sample hot path).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace dcprof::core {

/// CRC32C of `len` bytes at `data`.
std::uint32_t crc32c(const void* data, std::size_t len);
std::uint32_t crc32c(std::string_view bytes);

/// The slice-by-8 table implementation on every host: the only path on
/// CPUs without SSE4.2, and the reference the hardware path is tested
/// against.
std::uint32_t crc32c_slice8(const void* data, std::size_t len);

/// Size of the footer that follows a sealed payload: {footer magic u32,
/// payload byte count u64, CRC32C of the payload u32}, little-endian.
/// Each format has its own footer magic; a torn or bit-flipped file
/// fails the check instead of reaching a parser.
inline constexpr std::size_t kSealBytes = 4 + 8 + 4;

/// Appends the footer over every byte of `payload`.
void seal(std::string& payload, std::uint32_t footer_magic);

/// Checks the footer that ends `image` (at least kSealBytes long)
/// against every byte before it. Returns an empty string when it
/// matches, else the first failure of "bad footer magic", "payload
/// length mismatch" and "checksum mismatch".
std::string check_seal(std::string_view image, std::uint32_t footer_magic);

/// The payload of a sealed image: every byte before its footer. A
/// reader checks the image (check_seal) once, then parses only this.
inline std::string_view sealed_payload(std::string_view image) {
  return image.substr(0, image.size() - kSealBytes);
}

}  // namespace dcprof::core
