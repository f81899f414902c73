#pragma once
// Reference residual decoder: the per-symbol formulation the production
// ResidualDecoder (compress/residual.h) replaced, kept as an oracle.
//
// A RangeDecoder object holds the coder state and a separate
// ResidualDecoder holds the class models; every symbol is one
// `decode(RangeDecoder&)` call. This is the straightforward mirror of
// RangeEncoder + ResidualEncoder: the trailer split is spelled out, and
// raw bits come off the side buffer one bit at a time. Tests decode the
// same bytes with both decoders and require the same symbols, the same
// final model state and a FormatError at the same symbol (or in both
// constructors).
//
// One departure from the code it was taken from: the class limit is
// ResidualEncoder::kMaxClass (64, the widest class an encoder writes).
// It used to be 68, which let a damaged stream reach classes 65-67 and an
// undefined 64-bit shift in `1ull << (k - 1)`.

#include <cstdint>
#include <span>

#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "util/bytes.h"
#include "util/error.h"

namespace cesm::comp::oracle {

/// Range decoder mirroring RangeEncoder, one bit per call.
class RangeDecoder {
 public:
  explicit RangeDecoder(std::span<const std::uint8_t> data) {
    if (data.size() < 4) throw FormatError("oracle: no trailer");
    const std::size_t trailer_at = data.size() - 4;
    const std::uint32_t raw_bytes = ByteReader(data.subspan(trailer_at)).u32();
    if (raw_bytes > trailer_at) throw FormatError("oracle: trailer overruns the stream");
    data_ = data.first(trailer_at - raw_bytes);
    raw_ = data.subspan(trailer_at - raw_bytes, raw_bytes);
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

  /// `nbits` side-buffer bits, LSB first.
  std::uint64_t decode_raw(unsigned nbits) {
    std::uint64_t v = 0;
    for (unsigned j = 0; j < nbits; ++j) {
      if (raw_bit_ >= raw_.size() * 8) throw FormatError("oracle: raw bits overrun");
      const std::uint64_t bit = (raw_[raw_bit_ / 8] >> (raw_bit_ % 8)) & 1u;
      v |= bit << j;
      ++raw_bit_;
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
    // Reading past the range-coded bytes is legal during the final flush
    // window.
    return pos_ < data_.size() ? data_[pos_++] : 0;
  }

  std::span<const std::uint8_t> data_;  ///< the range-coded bytes
  std::span<const std::uint8_t> raw_;   ///< the side buffer
  std::size_t pos_ = 0;
  std::size_t raw_bit_ = 0;
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
    return (1ull << (k - 1)) | dec.decode_raw(k - 1);
  }

  [[nodiscard]] std::span<const BitModel, kMaxClass + 1> models() const { return models_; }

 private:
  BitModel models_[kMaxClass + 1];
};

}  // namespace cesm::comp::oracle
