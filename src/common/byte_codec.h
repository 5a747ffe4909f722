// Copyright 2026 The siot-trust Authors.
// Little-endian fixed-width fields: the one spelling of integers and
// doubles that every binary storage format shares (WAL frame headers, v2
// WAL ops, v2 checkpoints). Doubles travel as their raw IEEE-754 bit
// patterns, never a decimal rendering, so a round trip loses no bit:
// recovery and followers compare restored state by exact equality.

#ifndef SIOT_COMMON_BYTE_CODEC_H_
#define SIOT_COMMON_BYTE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace siot {

namespace byte_codec_internal {

/// Stores `v` little-endian at `out`: one copy on a little-endian host.
template <typename T>
void StoreLittleEndian(char* out, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      out[i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
  }
}

template <typename T>
void PutLittleEndian(std::string* out, T v) {
  char bytes[sizeof(T)];
  StoreLittleEndian(bytes, v);
  out->append(bytes, sizeof(T));
}

}  // namespace byte_codec_internal

inline void PutU16(std::string* out, std::uint16_t v) {
  byte_codec_internal::PutLittleEndian(out, v);
}
inline void PutU32(std::string* out, std::uint32_t v) {
  byte_codec_internal::PutLittleEndian(out, v);
}
inline void PutU64(std::string* out, std::uint64_t v) {
  byte_codec_internal::PutLittleEndian(out, v);
}
inline void PutF64(std::string* out, double v) {
  PutU64(out, std::bit_cast<std::uint64_t>(v));
}

/// Little-endian cursor that writes into memory the caller has already
/// sized for every field it will write (an encoder that knows its exact
/// output size): each field is one store, with no capacity check.
class FixedWriter {
 public:
  explicit FixedWriter(char* out) : out_(out) {}

  void U8(std::uint8_t v) { Fixed(v); }
  void U16(std::uint16_t v) { Fixed(v); }
  void U32(std::uint32_t v) { Fixed(v); }
  void U64(std::uint64_t v) { Fixed(v); }
  void F64(double v) { Fixed(std::bit_cast<std::uint64_t>(v)); }
  void Bytes(std::string_view bytes) {
    if (bytes.empty()) return;
    std::memcpy(out_, bytes.data(), bytes.size());
    out_ += bytes.size();
  }

  char* position() const { return out_; }

 private:
  template <typename T>
  void Fixed(T v) {
    byte_codec_internal::StoreLittleEndian(out_, v);
    out_ += sizeof(T);
  }

  char* out_;
};

/// Little-endian cursor over untrusted bytes. Every read is
/// bounds-checked: a read past the end returns false and consumes
/// nothing, so a truncated input or a lying length field surfaces as a
/// failed read, never an out-of-range access.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view bytes) : bytes_(bytes) {}

  bool U8(std::uint8_t* v) { return Fixed(v); }
  bool U16(std::uint16_t* v) { return Fixed(v); }
  bool U32(std::uint32_t* v) { return Fixed(v); }
  bool U64(std::uint64_t* v) { return Fixed(v); }
  bool F64(double* v) {
    std::uint64_t bits = 0;
    if (!U64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  /// Copies the next `n` bytes into `out`.
  bool Bytes(std::size_t n, std::string* out) {
    std::string_view view;
    if (!View(n, &view)) return false;
    out->assign(view);
    return true;
  }

  /// Points `out` at the next `n` bytes; valid while the input is.
  bool View(std::size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = bytes_.substr(offset_, n);
    offset_ += n;
    return true;
  }

  std::size_t remaining() const { return bytes_.size() - offset_; }

 private:
  template <typename T>
  bool Fixed(T* v) {
    if (remaining() < sizeof(T)) return false;
    T value = 0;
    for (std::size_t i = sizeof(T); i-- > 0;) {
      value = static_cast<T>(
          (value << 8) | static_cast<unsigned char>(bytes_[offset_ + i]));
    }
    offset_ += sizeof(T);
    *v = value;
    return true;
  }

  std::string_view bytes_;
  std::size_t offset_ = 0;
};

}  // namespace siot

#endif  // SIOT_COMMON_BYTE_CODEC_H_
