// The little-endian byte codec of every dcprof file format: `.dcpf`
// profiles (core/profile), `.dcck` ingest checkpoints (analysis/ingest)
// and `.dcst` structure files (binfmt/structure). Writers append to a
// std::string; readers decode straight out of an in-memory byte image
// (a file read whole by core::read_file, or a string the caller holds).
// Integers are little-endian; a string is a u32 byte count, then the
// bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dcprof::binfmt {

inline void put_u8(std::string& o, std::uint8_t v) {
  o.push_back(static_cast<char>(v));
}
inline void put_u32(std::string& o, std::uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  o.append(b, 4);
}
inline void put_u64(std::string& o, std::uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  o.append(b, 8);
}
inline void put_str(std::string& o, std::string_view s) {
  put_u32(o, static_cast<std::uint32_t>(s.size()));
  o.append(s);
}

/// Cap for a string length read from disk: a corrupt length must fail
/// with a clear error instead of a multi-gigabyte allocation attempt.
inline constexpr std::uint32_t kMaxStringBytes = 1u << 24;

/// Decodes a byte image with no stream machinery and no intermediate
/// buffer. A short read sets a sticky fail flag, consumes nothing, and
/// yields zeros, so `require` throws "truncated <format>: <what>" at the
/// first record that did not fully arrive. A count or length must be
/// `require`d before it drives a loop or an allocation. A strict parse
/// ends with `require_end`: it must consume the image to the last byte.
class ByteReader {
 public:
  /// `format` names the file kind in error messages ("profile",
  /// "structure file", "checkpoint").
  ByteReader(std::string_view bytes, const char* format)
      : bytes_(bytes), format_(format) {}

  std::uint8_t u8() {
    const char* p = take(1);
    return p ? static_cast<std::uint8_t>(static_cast<unsigned char>(*p)) : 0;
  }
  std::uint32_t u32() { return le<std::uint32_t>(take(4)); }
  std::uint64_t u64() { return le<std::uint64_t>(take(8)); }
  /// The next `n` bytes of the image (empty on a short read).
  std::string_view view(std::size_t n) {
    const char* p = take(n);
    return p ? std::string_view(p, n) : std::string_view();
  }
  /// One put_str string into `out`, reusing its buffer. Throws on a
  /// short read and on a length past kMaxStringBytes.
  void str(std::string& out) {
    const std::uint32_t len = u32();
    require("string length");
    if (len > kMaxStringBytes) {
      throw std::runtime_error(std::string("corrupt ") + format_ +
                               ": implausible string length");
    }
    const std::string_view s = view(len);
    require("string data");
    out.assign(s);
  }

  void require(const char* what) const {
    if (fail_) {
      throw std::runtime_error(std::string("truncated ") + format_ + ": " +
                               what);
    }
  }

  /// Throws "trailing bytes after <format>" unless every byte of the
  /// image was consumed.
  void require_end() const {
    if (off_ != bytes_.size()) {
      throw std::runtime_error(std::string("trailing bytes after ") +
                               format_);
    }
  }

 private:
  template <class T>
  static T le(const char* p) {
    T v = 0;
    if (!p) return v;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
    }
    return v;
  }
  /// Consumes `n` bytes, or sets the fail flag and consumes nothing.
  const char* take(std::size_t n) {
    if (fail_ || bytes_.size() - off_ < n) {
      fail_ = true;
      return nullptr;
    }
    const char* p = bytes_.data() + off_;
    off_ += n;
    return p;
  }

  std::string_view bytes_;
  const char* format_;
  std::size_t off_ = 0;
  bool fail_ = false;
};

}  // namespace dcprof::binfmt
