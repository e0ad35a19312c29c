// CRC32C: known-answer vectors, the dispatched path against the
// slice-by-8 tables, and the error-detection properties the .dcpf footer
// relies on.
#include "core/checksum.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

namespace dcprof::core {
namespace {

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC32C check value (RFC 3720 appendix / Castagnoli).
  EXPECT_EQ(crc32c("123456789"), 0xe3069283u);
  // Empty input: initial state xor final xor.
  EXPECT_EQ(crc32c("", 0), 0x00000000u);
  // iSCSI test vectors (RFC 3720 B.4): 32 bytes of zeros / ones /
  // ascending bytes.
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c(zeros), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(crc32c(ones), 0x62a8ab43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c(ascending), 0x46dd794eu);
}

// `crc32c` runs the SSE4.2 instruction where the CPU has it; the
// slice-by-8 tables are the reference. Every length up to well past the
// 8-byte step, from every alignment, covers the word loop, the byte
// tail and unaligned loads.
TEST(Crc32c, DispatchedPathMatchesSliceBy8Tables) {
  // The RFC 3720 vectors of KnownAnswerVectors, on the tables.
  EXPECT_EQ(crc32c_slice8("123456789", 9), 0xe3069283u);
  EXPECT_EQ(crc32c_slice8("", 0), 0x00000000u);
  const std::string zeros(32, '\0');
  EXPECT_EQ(crc32c_slice8(zeros.data(), zeros.size()), 0x8a9136aau);
  const std::string ones(32, '\xff');
  EXPECT_EQ(crc32c_slice8(ones.data(), ones.size()), 0x62a8ab43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(crc32c_slice8(ascending.data(), ascending.size()), 0x46dd794eu);

  std::string data;
  for (int i = 0; i < 1100 + 8; ++i) {
    data.push_back(static_cast<char>((i * 131 + 17) & 0xff));
  }
  for (std::size_t start = 0; start < 8; ++start) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const char* p = data.data() + start;
      ASSERT_EQ(crc32c(p, len), crc32c_slice8(p, len))
          << "start " << start << " length " << len;
    }
  }
}

TEST(Crc32c, DetectsSingleBitFlipsAnywhere) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t good = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] ^= static_cast<char>(1 << bit);
      EXPECT_NE(crc32c(data), good) << "byte " << i << " bit " << bit;
      data[i] ^= static_cast<char>(1 << bit);
    }
  }
}

TEST(Crc32c, DistinguishesLengthExtension) {
  // A truncated payload plus matching length field must not collide:
  // the footer stores both the byte count and the CRC, but the CRC
  // itself already separates prefixes.
  const std::string data = "abcdefgh";
  std::uint32_t prev = crc32c("", 0);
  for (std::size_t len = 1; len <= data.size(); ++len) {
    const std::uint32_t cur = crc32c(data.data(), len);
    EXPECT_NE(cur, prev) << len;
    prev = cur;
  }
}

}  // namespace
}  // namespace dcprof::core
