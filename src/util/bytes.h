#pragma once
// Byte-level serialization helpers used by the codecs and the ncio
// container. All multi-byte values are stored little-endian regardless of
// host order so encoded streams are portable.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace cesm {

using Bytes = std::vector<std::uint8_t>;

/// Append-only little-endian byte sink.
class ByteWriter {
 public:
  explicit ByteWriter(Bytes& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f32(float v) { u32(std::bit_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  /// Length-prefixed (u32) string.
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  void raw(const std::uint8_t* data, std::size_t n) {
    out_.insert(out_.end(), data, data + n);
  }

  void raw(std::span<const std::uint8_t> data) { raw(data.data(), data.size()); }

  // Bulk little-endian array writes (cache serialization of multi-MB
  // field/statistic arrays): one memcpy on little-endian hosts, the
  // per-element path elsewhere, so streams stay byte-identical across
  // architectures.
  void f32_array(std::span<const float> v) { scalar_array(v); }
  void f64_array(std::span<const double> v) { scalar_array(v); }
  void u32_array(std::span<const std::uint32_t> v) { scalar_array(v); }
  void u64_array(std::span<const std::uint64_t> v) { scalar_array(v); }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  template <typename T>
  void scalar_array(std::span<const T> v) {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
      raw(reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(T));
    } else {
      for (const T& x : v) {
        if constexpr (sizeof(T) == 4) {
          u32(std::bit_cast<std::uint32_t>(x));
        } else {
          u64(std::bit_cast<std::uint64_t>(x));
        }
      }
    }
  }

  Bytes& out_;
};

/// Bounds-checked little-endian byte source; throws FormatError past end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    std::uint16_t v = static_cast<std::uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }

  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  float f32() { return std::bit_cast<float>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    std::uint32_t n = u32();
    need(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  std::span<const std::uint8_t> raw(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  // Bulk little-endian array reads mirroring ByteWriter's *_array.
  void f32_array(std::span<float> out) { scalar_array(out); }
  void f64_array(std::span<double> out) { scalar_array(out); }
  void u32_array(std::span<std::uint32_t> out) { scalar_array(out); }

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  void scalar_array(std::span<T> out) {
    static_assert(std::is_arithmetic_v<T>);
    if constexpr (std::endian::native == std::endian::little) {
      const auto src = raw(out.size() * sizeof(T));
      std::memcpy(out.data(), src.data(), src.size());
    } else {
      for (T& x : out) {
        if constexpr (sizeof(T) == 4) {
          x = std::bit_cast<T>(u32());
        } else {
          x = std::bit_cast<T>(u64());
        }
      }
    }
  }

  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw FormatError("truncated stream");
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cesm
