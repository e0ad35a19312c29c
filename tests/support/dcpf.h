// Hand-built `.dcpf` shards for tests: byte images the production writer
// never emits, each with an intact footer and CRC32C, so they pass the
// checksum in ThreadProfile::check_framing and exercise what lies past
// it. Shared by the pipeline, ingest and crash-safety suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/checksum.h"
#include "core/profile.h"

namespace dcprof::test {

/// Footer bytes of a serialized profile: magic, payload length, CRC32C.
inline constexpr std::size_t kDcpfFooterBytes = 4 + 8 + 4;

/// `payload` (header + body) followed by a valid footer.
inline std::string with_footer(std::string payload) {
  const std::uint32_t crc = core::crc32c(payload);
  const std::uint64_t size = payload.size();
  const auto put = [&](std::uint64_t v, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      payload.push_back(static_cast<char>((v >> (8 * b)) & 0xffu));
    }
  };
  put(0x64637074u, 4);  // footer magic "dcpt"
  put(size, 8);
  put(crc, 4);
  return payload;
}

/// A shard whose framing and CRC32C are intact but whose record stream
/// is truncated mid-body, `cut` payload bytes short of the serialized
/// profile `good` — bytes only a buggy writer (not a torn write) can
/// produce. The framing check passes and the failure only surfaces
/// part-way through a merge: a poisoned fold.
inline std::string poisoned_shard(const std::string& good,
                                  std::size_t cut = 10) {
  const std::string out = with_footer(
      good.substr(0, good.size() - kDcpfFooterBytes - cut));
  EXPECT_TRUE(core::ThreadProfile::check_framing(out).empty());
  return out;
}

/// The serialized profile `good` with its header version word replaced
/// by `version` and the footer recomputed: a well-framed shard of a
/// version this build does not read.
inline std::string with_version(const std::string& good,
                                std::uint32_t version) {
  std::string payload = good.substr(0, good.size() - kDcpfFooterBytes);
  for (int b = 0; b < 4; ++b) {
    payload[4 + static_cast<std::size_t>(b)] =
        static_cast<char>((version >> (8 * b)) & 0xffu);
  }
  return with_footer(std::move(payload));
}

}  // namespace dcprof::test
