#include "core/checksum.h"

#include <array>
#include <cstring>

#include "binfmt/bytes.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define DCPROF_CRC32C_SSE42 1
#endif

namespace dcprof::core {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u;  // reflected 0x1EDC6F41

/// tables[0] is the classic byte-at-a-time table; tables[k] advances a
/// byte through k additional zero bytes, which is what lets slice-by-8
/// fold eight input bytes per iteration.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][i] = crc;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    for (std::size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if DCPROF_CRC32C_SSE42
/// The CRC32 instruction computes the same reflected Castagnoli CRC as
/// the tables; x86 is little-endian, so a memcpy'd u64 holds the next
/// eight bytes in stream order.
__attribute__((target("sse4.2"))) std::uint32_t crc32c_sse42(
    const unsigned char* p, std::size_t len) {
  std::uint64_t crc = 0xffffffffu;
  for (; len >= 8; p += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<std::uint32_t>(crc);
  while (len-- > 0) crc32 = _mm_crc32_u8(crc32, *p++);
  return crc32 ^ 0xffffffffu;
}

bool have_sse42() {
  // __builtin_cpu_supports reads what __builtin_cpu_init fills in; run
  // before the CPU-feature constructor (e.g. from a namespace-scope
  // initializer) it reports false, so init explicitly.
  static const bool yes = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return yes;
}
#endif

}  // namespace

std::uint32_t crc32c_slice8(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xffffffffu;
  while (len >= 8) {
    const std::uint32_t lo = load_le32(p) ^ crc;
    const std::uint32_t hi = load_le32(p + 4);
    crc = kTables[7][lo & 0xff] ^ kTables[6][(lo >> 8) & 0xff] ^
          kTables[5][(lo >> 16) & 0xff] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xff] ^ kTables[2][(hi >> 8) & 0xff] ^
          kTables[1][(hi >> 16) & 0xff] ^ kTables[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xff];
  }
  return crc ^ 0xffffffffu;
}

std::uint32_t crc32c(const void* data, std::size_t len) {
#if DCPROF_CRC32C_SSE42
  if (have_sse42()) {
    return crc32c_sse42(static_cast<const unsigned char*>(data), len);
  }
#endif
  return crc32c_slice8(data, len);
}

std::uint32_t crc32c(std::string_view bytes) {
  return crc32c(bytes.data(), bytes.size());
}

void seal(std::string& payload, std::uint32_t footer_magic) {
  const std::uint64_t length = payload.size();
  const std::uint32_t crc = crc32c(payload);
  binfmt::put_u32(payload, footer_magic);
  binfmt::put_u64(payload, length);
  binfmt::put_u32(payload, crc);
}

std::string check_seal(std::string_view image, std::uint32_t footer_magic) {
  const std::string_view payload = sealed_payload(image);
  binfmt::ByteReader footer(image.substr(payload.size()), "footer");
  if (footer.u32() != footer_magic) return "bad footer magic";
  if (footer.u64() != payload.size()) return "payload length mismatch";
  if (footer.u32() != crc32c(payload)) return "checksum mismatch";
  return {};
}

}  // namespace dcprof::core
