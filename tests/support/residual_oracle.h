#pragma once
// Reference residual decoder: the per-symbol formulation the production
// ResidualDecoder (compress/residual.h) replaced, kept as an oracle.
//
// A RangeDecoder object holds the coder state and a separate
// ResidualDecoder holds the class models; every symbol is one
// `decode(RangeDecoder&)` call. This is the straightforward mirror of
// RangeEncoder + ResidualEncoder. Tests decode the same bytes with both
// decoders and require the same symbols, the same final model state and
// a FormatError at the same symbol.
//
// One departure from the code it was taken from: the class limit is
// ResidualEncoder::kMaxClass (64, the widest class an encoder writes).
// It used to be 68, which let a damaged stream reach classes 65-67 and an
// undefined 64-bit shift in `1ull << (k - 1)`.

#include <bit>
#include <cstdint>
#include <span>

#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "util/error.h"

namespace cesm::comp::oracle {

/// Range decoder mirroring RangeEncoder, one bit per call.
class RangeDecoder {
 public:
  explicit RangeDecoder(std::span<const std::uint8_t> data) : data_(data) {
    for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | next_byte();
  }

  bool decode(BitModel& model) {
    const std::uint32_t bound = (range_ >> BitModel::kBits) * model.p0();
    const bool bit = static_cast<std::uint32_t>(code_) >= bound;
    code_ -= bit ? bound : 0u;
    range_ = bit ? range_ - bound : bound;
    model.update(bit);
    normalize();
    return bit;
  }

  std::uint32_t decode_raw(unsigned nbits) {
    std::uint32_t v = 0;
    while (nbits > 0) {
      unsigned m = static_cast<unsigned>(std::bit_width(range_)) - 25;
      if (m == 0) {
        --nbits;
        range_ >>= 1;
        const bool bit = static_cast<std::uint32_t>(code_) >= range_;
        code_ -= bit ? range_ : 0u;
        v = (v << 1) | (bit ? 1u : 0u);
        normalize();
        continue;
      }
      if (m > nbits) m = nbits;
      nbits -= m;
      for (unsigned j = 0; j < m; ++j) {
        range_ >>= 1;
        const bool bit = static_cast<std::uint32_t>(code_) >= range_;
        code_ -= bit ? range_ : 0u;
        v = (v << 1) | (bit ? 1u : 0u);
      }
    }
    return v;
  }

 private:
  void normalize() {
    while (range_ < (1u << 24)) {
      code_ = ((code_ << 8) | next_byte()) & 0xffffffffull;
      range_ <<= 8;
    }
  }

  std::uint8_t next_byte() {
    // Reading past the payload is legal during the final flush window.
    return pos_ < data_.size() ? data_[pos_++] : 0;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  std::uint64_t code_ = 0;
  std::uint32_t range_ = 0xffffffffu;
};

/// Class models of one residual stream, decoded one symbol per call.
class ResidualDecoder {
 public:
  static constexpr unsigned kMaxClass = ResidualEncoder::kMaxClass;

  std::uint64_t decode(RangeDecoder& dec) {
    unsigned k = 0;
    while (dec.decode(models_[k])) {
      if (++k > kMaxClass) throw FormatError("residual class overflow");
    }
    if (k == 0) return 0;
    std::uint64_t z = 1ull << (k - 1);
    if (k > 1) {
      if (k - 1 > 32) {
        z |= static_cast<std::uint64_t>(dec.decode_raw(k - 33)) << 32;
        z |= dec.decode_raw(32);
      } else {
        z |= dec.decode_raw(k - 1);
      }
    }
    return z;
  }

  [[nodiscard]] std::span<const BitModel, kMaxClass + 1> models() const { return models_; }

 private:
  BitModel models_[kMaxClass + 1];
};

}  // namespace cesm::comp::oracle
