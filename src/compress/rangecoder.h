#pragma once
// Adaptive binary range coder (arithmetic-coding workhorse for the fpz
// residual stage and the GRIB2 bit-plane stage).
//
// Classic carry-propagating 32-bit range coder with 64-bit low register and
// 12-bit adaptive bit probabilities (LZMA-style shift-update models).
//
// The coder is the single hottest loop of every predictive codec (the
// BENCH_codecs breakdown puts >90% of fpzip/GRIB2 encode time here), so the
// inner operations are written branch-free where the branch would be
// data-dependent (the bit decision, the model update) and the equiprobable
// bypass path processes multi-bit batches between renormalizations instead
// of one bit per normalize() round trip. Every transformation below is
// byte-stream-preserving: the emitted/consumed streams are bit-identical to
// the straightforward one-bit-at-a-time formulation (pinned by
// tests/compress/test_rangecoder.cpp and the codec conformance digests in
// tests/compress/test_codec_pin.cpp).
//
// This header holds the encoder only. The decoder is not a separate
// object here: its state (code, range, read position) lives together with
// the adaptive class models in ResidualDecoder (compress/residual.h), which
// every codec builds as a local so that the whole serial bit chain stays in
// registers. residual.h explains why the two must not be split again.

#include <bit>
#include <cstdint>
#include <vector>

#include "util/bytes.h"

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

/// Range encoder producing a byte stream.
class RangeEncoder {
 public:
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

  /// Encode `nbits` raw (equiprobable) bits, MSB first.
  ///
  /// Batched renormalization: each bit halves the range, so while the range
  /// register has `m` bits of width above the 2^24 floor the next `m` bits
  /// cannot trigger a normalize. Run those through a tight branch-free loop
  /// (the data-dependent add compiles to a conditional move) and only fall
  /// back to the classic step-plus-normalize when the spare width is gone.
  void encode_raw(std::uint32_t value, unsigned nbits) {
    while (nbits > 0) {
      // range_ >= 2^24 between symbols, so the spare width is in [0, 7].
      unsigned m = static_cast<unsigned>(std::bit_width(range_)) - 25;
      if (m == 0) {
        --nbits;
        range_ >>= 1;
        low_ += ((value >> nbits) & 1u) ? range_ : 0u;
        normalize();
        continue;
      }
      if (m > nbits) m = nbits;
      for (unsigned j = 0; j < m; ++j) {
        --nbits;
        range_ >>= 1;
        low_ += ((value >> nbits) & 1u) ? range_ : 0u;
      }
      // range_ >= 2^24 still holds: no normalize needed inside the window.
    }
  }

  /// Flush the final state; must be called exactly once.
  void finish() {
    for (int i = 0; i < 5; ++i) shift_low();
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
};

}  // namespace cesm::comp
