#pragma once
// Shared adaptive residual-magnitude coder.
//
// Encodes unsigned "zig-zagged" residuals: the bit-width class k is coded
// with a chain of adaptive binary models (cheap for the near-zero residuals
// prediction leaves behind), then the k-1 bits below the implicit leading
// one bit pass through the raw bypass path of the range coder.
//
// Why the decoder is one object. Decoding is one serial dependency chain:
// every bit decision needs the code and range the previous one left, and
// the next class model depends on that decision. ResidualDecoder owns the
// whole chain — the range-coder state (code, range, read pointer) and the
// adaptive class models — and each codec builds it as a local in its
// decode function. Its members are forced inline (GCC otherwise keeps
// decode() out of line), so the compiler sees a local object whose address
// does not escape the symbol loop and keeps code, range and the read
// pointer in registers across it. The per-symbol form this replaced — a
// range decoder passed by reference into one out-of-line model-holder call
// per symbol, the shape the encoder still has — sent that state through
// memory on every symbol and decoded at half the encode rate. So keep the
// state and the models together, keep each hot symbol loop in the function
// that owns the decoder, and do not hand the decoder to an out-of-line
// function or a type-erased callback inside such a loop. (The bitmap
// helper below takes it by reference: its few run symbols come before the
// coefficient loop, which reloads the state into registers.) The encoder
// has no such gap, so it keeps the two-object form.
//
// Streams are pinned by tests/compress/test_rangecoder.cpp and
// tests/compress/test_codec_pin.cpp; the decoder is checked against the
// straightforward per-symbol formulation in tests/support/residual_oracle.h
// on every truncation and single-bit flip of its test streams.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "compress/rangecoder.h"
#include "util/error.h"
#include "util/trace.h"

namespace cesm::comp {

/// What encoding residuals cost the range coder: symbols, adaptive class
/// decisions (k + 1 per symbol of class k) and raw bits (k - 1 per symbol
/// with k > 1). Encoders tally per symbol; codecs add the tally to the
/// codec.residual_* counters once per stream.
struct ResidualTally {
  std::uint64_t symbols = 0;
  std::uint64_t class_decisions = 0;
  std::uint64_t raw_bits = 0;

  ResidualTally& operator+=(const ResidualTally& other) {
    symbols += other.symbols;
    class_decisions += other.class_decisions;
    raw_bits += other.raw_bits;
    return *this;
  }

  void add_to_counters() const {
    trace::add(trace::Counter::kCodecResidualSymbols, symbols);
    trace::add(trace::Counter::kCodecResidualClassDecisions, class_decisions);
    trace::add(trace::Counter::kCodecResidualRawBits, raw_bits);
  }
};

class ResidualEncoder {
 public:
  /// The widest class: a 64-bit residual with its top bit set.
  static constexpr unsigned kMaxClass = 64;

  void encode(RangeEncoder& enc, std::uint64_t z) {
    const unsigned k = z == 0 ? 0 : static_cast<unsigned>(std::bit_width(z));
    ++tally_.symbols;
    tally_.class_decisions += k + 1;
    tally_.raw_bits += k > 1 ? k - 1 : 0;
    for (unsigned i = 0; i < k; ++i) enc.encode(models_[i], true);
    enc.encode(models_[k], false);
    if (k > 1) {
      const std::uint64_t rest = z & ((1ull << (k - 1)) - 1);
      if (k - 1 > 32) {
        enc.encode_raw(static_cast<std::uint32_t>(rest >> 32), k - 33);
        enc.encode_raw(static_cast<std::uint32_t>(rest), 32);
      } else {
        enc.encode_raw(static_cast<std::uint32_t>(rest), k - 1);
      }
    }
  }

  /// Everything encode() has coded so far.
  [[nodiscard]] const ResidualTally& tally() const { return tally_; }

 private:
  BitModel models_[kMaxClass + 1];
  ResidualTally tally_;
};

/// Decoder of one range-coded residual stream (see the header comment).
/// `kModelSets` independent sets of class models share the stream; a
/// stream written by N ResidualEncoders over one RangeEncoder decodes with
/// one ResidualDecoder<N>, passing encoder i's index as `set`.
template <unsigned kModelSets = 1>
class ResidualDecoder {
 public:
  static constexpr unsigned kMaxClass = ResidualEncoder::kMaxClass;

  explicit ResidualDecoder(std::span<const std::uint8_t> data)
      : pos_(data.data()), end_(data.data() + data.size()) {
    // The first byte is the encoder's constant carry byte; it shifts out
    // of the 32-bit code register during this prime.
    for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | next_byte();
  }

  /// Decode the next residual with model set `set`. Throws FormatError
  /// when the class chain runs past kMaxClass (no encoder emits that).
  [[gnu::always_inline]] std::uint64_t decode(unsigned set = 0) {
    unsigned k = 0;
    while (decode_bit(models_[set][k])) {
      if (++k > kMaxClass) throw FormatError("residual class overflow");
    }
    if (k <= 1) return k;
    std::uint64_t z = 1ull << (k - 1);
    if (k - 1 > 32) {
      z |= static_cast<std::uint64_t>(decode_raw(k - 33)) << 32;
      z |= decode_raw(32);
    } else {
      z |= decode_raw(k - 1);
    }
    return z;
  }

  /// The class models of set `set`, for checking decoder state in tests.
  [[nodiscard]] std::span<const BitModel, kMaxClass + 1> models(unsigned set = 0) const {
    return models_[set];
  }

 private:
  // The class chain exits on a 0 bit, so this decision is a branch anyway
  // and plain selects are fine here. The raw bits below are unpredictable;
  // they select with masks because, once inlined, the compiler turns
  // `bit ? a : b` there into branches.
  [[gnu::always_inline]] bool decode_bit(BitModel& model) {
    const std::uint32_t bound = (range_ >> BitModel::kBits) * model.p0();
    const bool bit = code_ >= bound;
    code_ -= bit ? bound : 0u;
    range_ = bit ? range_ - bound : bound;
    model.update(bit);
    normalize();
    return bit;
  }

  /// `nbits` equiprobable bits, MSB first; the mirror of
  /// RangeEncoder::encode_raw, including its batched renormalization.
  [[gnu::always_inline]] std::uint32_t decode_raw(unsigned nbits) {
    std::uint32_t v = 0;
    while (nbits > 0) {
      // range_ >= 2^24 between symbols, so the spare width is in [0, 7].
      unsigned m = static_cast<unsigned>(std::bit_width(range_)) - 25;
      if (m == 0) {
        --nbits;
        range_ >>= 1;
        const std::uint32_t bit = code_ >= range_ ? 1u : 0u;
        code_ -= range_ & (0u - bit);
        v = (v << 1) | bit;
        normalize();
        continue;
      }
      if (m > nbits) m = nbits;
      nbits -= m;
      for (unsigned j = 0; j < m; ++j) {
        range_ >>= 1;
        const std::uint32_t bit = code_ >= range_ ? 1u : 0u;
        code_ -= range_ & (0u - bit);
        v = (v << 1) | bit;
      }
      // range_ >= 2^24 still holds: no normalize needed inside the window.
    }
    return v;
  }

  [[gnu::always_inline]] void normalize() {
    while (range_ < (1u << 24)) {
      code_ = (code_ << 8) | next_byte();
      range_ <<= 8;
    }
  }

  [[gnu::always_inline]] std::uint8_t next_byte() {
    // Reading past the payload is legal during the final flush window; the
    // decoder never uses those bits to produce symbols.
    return pos_ < end_ ? *pos_++ : 0;
  }

  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  std::uint32_t code_ = 0;
  std::uint32_t range_ = 0xffffffffu;
  BitModel models_[kModelSets][kMaxClass + 1];
};

/// Run-length code a validity bitmap into `enc` under its own class
/// models: alternating run lengths, starting with the length of the
/// initial valid run (possibly zero).
inline void encode_validity_runs(RangeEncoder& enc, std::span<const std::uint8_t> valid) {
  ResidualEncoder coder;
  std::size_t i = 0;
  bool current = true;
  while (i < valid.size()) {
    std::size_t run = 0;
    while (i + run < valid.size() && (valid[i + run] != 0) == current) ++run;
    coder.encode(enc, run);
    i += run;
    current = !current;
  }
  coder.tally().add_to_counters();
}

/// Inverse of encode_validity_runs for an `n`-point bitmap, with model set
/// `set`. A run past the end throws FormatError(`overflow_message`).
template <unsigned kModelSets>
std::vector<std::uint8_t> decode_validity_runs(ResidualDecoder<kModelSets>& dec,
                                               unsigned set, std::size_t n,
                                               const char* overflow_message) {
  std::vector<std::uint8_t> valid(n, 0);
  std::size_t i = 0;
  bool current = true;
  while (i < n) {
    const std::uint64_t run = dec.decode(set);
    if (run > n - i) throw FormatError(overflow_message);
    if (current) {
      std::fill_n(valid.begin() + static_cast<std::ptrdiff_t>(i), run, std::uint8_t{1});
    }
    i += run;
    current = !current;
  }
  return valid;
}

}  // namespace cesm::comp
