#pragma once
// Shared adaptive residual-magnitude coder.
//
// Encodes unsigned "zig-zagged" residuals: the bit-width class k is coded
// with a chain of adaptive binary models (cheap for the near-zero residuals
// prediction leaves behind), then the k-1 bits below the implicit leading
// one bit go to the encoder's raw-bit side buffer (compress/rangecoder.h
// has the stream layout). Only the class chain is range-coded.
//
// Why the decoder is one object. Decoding is one serial dependency chain:
// every bit decision needs the code and range the previous one left, and
// the next class model depends on that decision. ResidualDecoder owns the
// whole chain — the range-coder state (code, range, read pointer), the
// side-buffer reader and the adaptive class models — and each codec builds
// it as a local in its decode function. Its members are forced inline (GCC
// otherwise keeps decode() out of line), so the compiler sees a local
// object whose address does not escape the symbol loop and keeps its state
// in registers across it. The per-symbol form this replaced — a range
// decoder passed by reference into one out-of-line model-holder call per
// symbol, the shape the encoder still has — sent that state through memory
// on every symbol and decoded at half the encode rate. So keep the state
// and the models together, keep each hot symbol loop in the function that
// owns the decoder, and do not hand the decoder to an out-of-line function
// or a type-erased callback inside such a loop. (The bitmap helper below
// takes it by reference: its few run symbols come before the coefficient
// loop, which reloads the state into registers.) The encoder has no such
// gap, so it keeps the two-object form.
//
// The decoder splits its span on the stream's raw-byte-count trailer and
// throws FormatError when that count overruns the span, or when a symbol's
// raw bits run past the side buffer.
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
#include "util/bytes.h"
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
    const unsigned raw_bits = k - (k != 0);  // below the implicit leading one
    ++tally_.symbols;
    tally_.class_decisions += k + 1;
    tally_.raw_bits += raw_bits;
    for (unsigned i = 0; i < k; ++i) enc.encode(models_[i], true);
    enc.encode(models_[k], false);
    enc.encode_raw(z & (std::bit_floor(z) - 1), raw_bits);
  }

  /// Everything encode() has coded so far.
  [[nodiscard]] const ResidualTally& tally() const { return tally_; }

 private:
  BitModel models_[kMaxClass + 1];
  ResidualTally tally_;
};

/// Decoder of one residual stream (see the header comment).
/// `kModelSets` independent sets of class models share the stream; a
/// stream written by N ResidualEncoders over one RangeEncoder decodes with
/// one ResidualDecoder<N>, passing encoder i's index as `set`.
template <unsigned kModelSets = 1>
class ResidualDecoder {
 public:
  static constexpr unsigned kMaxClass = ResidualEncoder::kMaxClass;

  /// Splits `data` on its trailer: range-coded bytes, then the side
  /// buffer. Throws FormatError when the trailer does not fit in `data`.
  explicit ResidualDecoder(std::span<const std::uint8_t> data) {
    constexpr std::size_t kTrailer = RangeEncoder::kTrailerBytes;
    if (data.size() < kTrailer) throw FormatError("residual stream too short for its trailer");
    const std::size_t trailer_at = data.size() - kTrailer;
    const std::uint32_t raw_bytes = ByteReader(data.subspan(trailer_at)).u32();
    if (raw_bytes > trailer_at) {
      throw FormatError("residual raw-bit trailer overruns the stream");
    }
    pos_ = data.data();
    end_ = data.data() + (trailer_at - raw_bytes);
    raw_pos_ = end_;
    raw_end_ = data.data() + trailer_at;
    // The first byte is the encoder's constant carry byte; it shifts out
    // of the 32-bit code register during this prime.
    for (int i = 0; i < 5; ++i) code_ = (code_ << 8) | next_byte();
  }

  /// Decode the next residual with model set `set`. Throws FormatError
  /// when the class chain runs past kMaxClass (no encoder emits that) or
  /// the raw bits run past the side buffer.
  [[gnu::always_inline]] std::uint64_t decode(unsigned set = 0) {
    unsigned k = 0;
    while (decode_bit(models_[set][k])) {
      if (++k > kMaxClass) throw FormatError("residual class overflow");
    }
    if (k <= 1) return k;
    std::uint64_t z = 1ull << (k - 1);
    if (k - 1 > kMaxRawRead) {
      z |= decode_raw(32);
      z |= decode_raw(k - 33) << 32;
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
  /// The widest read one refill always covers.
  static constexpr unsigned kMaxRawRead = 56;

  // The class chain exits on a 0 bit, so this decision is a branch anyway
  // and plain selects are fine here.
  [[gnu::always_inline]] bool decode_bit(BitModel& model) {
    const std::uint32_t bound = (range_ >> BitModel::kBits) * model.p0();
    const bool bit = code_ >= bound;
    code_ -= bit ? bound : 0u;
    range_ = bit ? range_ - bound : bound;
    model.update(bit);
    normalize();
    return bit;
  }

  /// The next `nbits` (1..kMaxRawRead) side-buffer bits, LSB first.
  [[gnu::always_inline]] std::uint64_t decode_raw(unsigned nbits) {
    if (raw_avail_ < nbits) {
      refill_raw();
      if (raw_avail_ < nbits) throw FormatError("residual raw bits overrun the side buffer");
    }
    const std::uint64_t v = raw_bits_ & ((1ull << nbits) - 1);
    raw_bits_ >>= nbits;
    raw_avail_ -= nbits;
    return v;
  }

  /// Top raw_bits_ up to at least kMaxRawRead bits, or to the end of the
  /// side buffer. The 8-byte load also ORs in bits of the next byte; they
  /// are the same bits the next refill ORs in again at the same place.
  [[gnu::always_inline]] void refill_raw() {
    if (raw_end_ - raw_pos_ >= 8) {
      std::uint64_t word = 0;
      for (int i = 0; i < 8; ++i) word |= static_cast<std::uint64_t>(raw_pos_[i]) << (8 * i);
      raw_bits_ |= word << raw_avail_;
      raw_pos_ += (63 - raw_avail_) >> 3;
      raw_avail_ |= kMaxRawRead;
    } else {
      while (raw_avail_ <= kMaxRawRead && raw_pos_ < raw_end_) {
        raw_bits_ |= static_cast<std::uint64_t>(*raw_pos_++) << raw_avail_;
        raw_avail_ += 8;
      }
    }
  }

  [[gnu::always_inline]] void normalize() {
    while (range_ < (1u << 24)) {
      code_ = (code_ << 8) | next_byte();
      range_ <<= 8;
    }
  }

  [[gnu::always_inline]] std::uint8_t next_byte() {
    // Reading past the range-coded bytes is legal during the final flush
    // window; the decoder never uses those bits to produce symbols.
    return pos_ < end_ ? *pos_++ : 0;
  }

  const std::uint8_t* pos_;
  const std::uint8_t* end_;
  const std::uint8_t* raw_pos_;
  const std::uint8_t* raw_end_;
  std::uint64_t raw_bits_ = 0;  ///< unread side-buffer bits, LSB next
  unsigned raw_avail_ = 0;      ///< valid bits in raw_bits_
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
/// `set`. A run past the end throws FormatError(`overflow_message`); so
/// does an empty run after the first, which no encoder writes and which
/// would otherwise never advance a damaged stream's decode.
template <unsigned kModelSets>
std::vector<std::uint8_t> decode_validity_runs(ResidualDecoder<kModelSets>& dec,
                                               unsigned set, std::size_t n,
                                               const char* overflow_message) {
  std::vector<std::uint8_t> valid(n, 0);
  std::size_t i = 0;
  bool current = true;
  bool first = true;
  while (i < n) {
    const std::uint64_t run = dec.decode(set);
    if (run > n - i || (run == 0 && !first)) throw FormatError(overflow_message);
    first = false;
    if (current) {
      std::fill_n(valid.begin() + static_cast<std::ptrdiff_t>(i), run, std::uint8_t{1});
    }
    i += run;
    current = !current;
  }
  return valid;
}

}  // namespace cesm::comp
