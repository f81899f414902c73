#pragma once
// Adaptive binary range coder (arithmetic-coding workhorse for the fpz
// residual stage and the GRIB2 bit-plane stage), plus the bit-packed side
// buffer that carries the stream's equiprobable raw bits.
//
// Classic carry-propagating 32-bit range coder with 64-bit low register and
// 12-bit adaptive bit probabilities (LZMA-style shift-update models). The
// inner operations are written branch-free where the branch would be
// data-dependent (the bit decision, the model update).
//
// Raw bits need no model, so they do not pass through the serial range
// coder: encode_raw() packs them LSB-first into 64-bit words, and finish()
// stores those words after the range-coded bytes. One stream is
//
//   range-coded bytes | raw bytes (little-endian words, last one cut to
//   the bytes it uses) | u32 raw byte count
//
// so a decoder finds the split from the stream's last four bytes. The
// encoder owns the side buffer, so several model sets (GRIB2's bitmap and
// coefficients) still share one stream.
//
// This header holds the encoder only. The decoder is not a separate
// object here: its state (code, range, read positions) lives together with
// the adaptive class models in ResidualDecoder (compress/residual.h), which
// every codec builds as a local so that the whole serial bit chain stays in
// registers. residual.h explains why the two must not be split again.

#include <cstdint>
#include <limits>
#include <vector>

#include "util/bytes.h"
#include "util/error.h"

namespace cesm::comp {

/// Adaptive probability of a binary symbol, 12-bit precision.
class BitModel {
 public:
  static constexpr unsigned kBits = 12;
  static constexpr std::uint32_t kOne = 1u << kBits;
  static constexpr unsigned kMoveBits = 5;

  /// Probability (scaled by 2^12) that the next bit is 0.
  [[nodiscard]] std::uint32_t p0() const { return p0_; }

  void update(bool bit) {
    // Both shift-updates are computed unconditionally and selected, so the
    // data-dependent bit never becomes a branch (conditional moves only).
    const std::uint32_t on_one = p0_ - (p0_ >> kMoveBits);
    const std::uint32_t on_zero = p0_ + ((kOne - p0_) >> kMoveBits);
    p0_ = bit ? on_one : on_zero;
  }

 private:
  std::uint32_t p0_ = kOne / 2;
};

/// Range encoder producing a byte stream, with its raw-bit side buffer.
class RangeEncoder {
 public:
  /// Bytes of the raw-byte-count trailer at the end of every stream.
  static constexpr std::size_t kTrailerBytes = 4;

  explicit RangeEncoder(Bytes& out) : out_(out) {}

  /// Encode one bit under an adaptive model (model is updated).
  void encode(BitModel& model, bool bit) {
    const std::uint32_t bound = (range_ >> BitModel::kBits) * model.p0();
    // Branch-free interval selection: low_ += bit ? bound : 0 and the
    // matching range shrink compile to conditional moves.
    low_ += bit ? bound : 0u;
    range_ = bit ? range_ - bound : bound;
    model.update(bit);
    normalize();
  }

  /// Append the low `nbits` (<= 64) bits of `value` to the side buffer,
  /// LSB first. Bits of `value` at or above `nbits` must be zero.
  void encode_raw(std::uint64_t value, unsigned nbits) {
    raw_acc_ |= value << raw_fill_;
    raw_fill_ += nbits;
    if (raw_fill_ >= 64) {
      raw_words_.push_back(raw_acc_);
      raw_fill_ -= 64;
      // The bits of `value` the full word had no room for.
      raw_acc_ = raw_fill_ == 0 ? 0 : value >> (nbits - raw_fill_);
    }
  }

  /// Flush the range coder, then append the side buffer and its byte
  /// count; must be called exactly once.
  void finish() {
    for (int i = 0; i < 5; ++i) shift_low();
    const std::size_t raw_bytes = raw_words_.size() * 8 + (raw_fill_ + 7) / 8;
    CESM_REQUIRE(raw_bytes <= std::numeric_limits<std::uint32_t>::max());
    ByteWriter w(out_);
    w.u64_array(raw_words_);
    for (unsigned bit = 0; bit < raw_fill_; bit += 8) {
      w.u8(static_cast<std::uint8_t>(raw_acc_ >> bit));
    }
    w.u32(static_cast<std::uint32_t>(raw_bytes));
    raw_words_ = {};
  }

 private:
  void normalize() {
    while (range_ < (1u << 24)) {
      shift_low();
      range_ <<= 8;
    }
  }

  // Canonical LZMA-style carry propagation: the first emitted byte is a
  // constant 0 the decoder skips during its 5-byte prime.
  void shift_low() {
    if (static_cast<std::uint32_t>(low_) < 0xff000000u ||
        static_cast<std::uint32_t>(low_ >> 32) != 0) {
      std::uint8_t carry = static_cast<std::uint8_t>(low_ >> 32);
      do {
        out_.push_back(static_cast<std::uint8_t>(cache_ + carry));
        cache_ = 0xff;
      } while (--cache_size_ != 0);
      cache_ = static_cast<std::uint8_t>(low_ >> 24);
    }
    ++cache_size_;
    low_ = (low_ << 8) & 0xffffffffull;
  }

  Bytes& out_;
  std::uint64_t low_ = 0;
  std::uint32_t range_ = 0xffffffffu;
  std::uint8_t cache_ = 0;
  std::uint64_t cache_size_ = 1;
  std::vector<std::uint64_t> raw_words_;  ///< full side-buffer words
  std::uint64_t raw_acc_ = 0;             ///< the word being filled
  unsigned raw_fill_ = 0;                 ///< bits in raw_acc_, < 64
};

}  // namespace cesm::comp
