// ResidualDecoder against the per-symbol reference decoder
// (tests/support/residual_oracle.h) on damaged input.
//
// For each test stream, every truncation prefix and every single-bit flip
// is decoded by both. The production decoder must return the oracle's
// symbols and end in the oracle's model state, or throw FormatError at
// exactly the symbol where the oracle throws, or reject the stream's
// trailer when the oracle does. Separate cases rewrite the raw-byte-count
// trailer and cut the side buffer short.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "compress/residual.h"
#include "support/residual_oracle.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

constexpr unsigned kModels = ResidualEncoder::kMaxClass + 1;

/// One encoded stream: the bytes plus, per symbol, the model set that
/// wrote it (the decoders need the same set sequence).
struct Stream {
  Bytes bytes;
  std::vector<unsigned> sets;
};

/// What one decoder made of a stream.
struct Outcome {
  bool rejected = false;            ///< the constructor threw FormatError
  std::vector<std::uint64_t> symbols;
  long threw_at = -1;               ///< symbol index of the FormatError, or -1
  std::vector<std::uint32_t> p0;    ///< every model of every set, at the end

  bool operator==(const Outcome&) const = default;
};

/// Encoder-side class models in the open, so a test can also write the
/// class chain no ResidualEncoder emits (the overflow stream).
struct OpenEncoder {
  BitModel models[2][kModels];

  void encode(RangeEncoder& enc, unsigned set, std::uint64_t z) {
    const unsigned k = z == 0 ? 0 : static_cast<unsigned>(std::bit_width(z));
    for (unsigned i = 0; i < k; ++i) enc.encode(models[set][i], true);
    enc.encode(models[set][k], false);
    if (k > 1) enc.encode_raw(z & ((1ull << (k - 1)) - 1), k - 1);
  }

  /// A class chain longer than kMaxClass: the decoder's overflow error.
  void encode_overflow(RangeEncoder& enc, unsigned set) {
    for (BitModel& model : models[set]) enc.encode(model, true);
  }
};

Outcome run_oracle(std::span<const std::uint8_t> bytes, const std::vector<unsigned>& sets) {
  Outcome out;
  oracle::ResidualDecoder coders[2];
  std::optional<oracle::RangeDecoder> dec;
  try {
    dec.emplace(bytes);
  } catch (const FormatError&) {
    out.rejected = true;
  }
  for (std::size_t i = 0; dec && i < sets.size(); ++i) {
    try {
      out.symbols.push_back(coders[sets[i]].decode(*dec));
    } catch (const FormatError&) {
      out.threw_at = static_cast<long>(i);
      break;
    }
  }
  for (const auto& coder : coders) {
    for (const BitModel& m : coder.models()) out.p0.push_back(m.p0());
  }
  return out;
}

Outcome run_production(std::span<const std::uint8_t> bytes,
                       const std::vector<unsigned>& sets) {
  Outcome out;
  std::optional<ResidualDecoder<2>> dec;
  try {
    dec.emplace(bytes);
  } catch (const FormatError&) {
    out.rejected = true;
    out.p0.assign(2 * kModels, BitModel{}.p0());  // the models never moved
    return out;
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    try {
      out.symbols.push_back(dec->decode(sets[i]));
    } catch (const FormatError&) {
      out.threw_at = static_cast<long>(i);
      break;
    }
  }
  for (unsigned set = 0; set < 2; ++set) {
    for (const BitModel& m : dec->models(set)) out.p0.push_back(m.p0());
  }
  return out;
}

/// The stream's raw-byte-count trailer.
std::uint32_t trailer_of(const Bytes& bytes) {
  return ByteReader(std::span(bytes).last(RangeEncoder::kTrailerBytes)).u32();
}

/// `bytes` with its trailer replaced by `raw_bytes`.
Bytes with_trailer(Bytes bytes, std::uint32_t raw_bytes) {
  bytes.resize(bytes.size() - RangeEncoder::kTrailerBytes);
  ByteWriter(bytes).u32(raw_bytes);
  return bytes;
}

/// Every truncation prefix and every single-bit flip of `s`.
void expect_equivalent_under_damage(const Stream& s) {
  ASSERT_EQ(run_production(s.bytes, s.sets), run_oracle(s.bytes, s.sets));
  for (std::size_t len = 0; len < s.bytes.size(); ++len) {
    const std::span<const std::uint8_t> prefix(s.bytes.data(), len);
    ASSERT_EQ(run_production(prefix, s.sets), run_oracle(prefix, s.sets))
        << "truncated to " << len << " of " << s.bytes.size() << " bytes";
  }
  Bytes damaged = s.bytes;
  for (std::size_t byte = 0; byte < damaged.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_EQ(run_production(damaged, s.sets), run_oracle(damaged, s.sets))
          << "bit " << bit << " of byte " << byte << " flipped";
      damaged[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

/// `count` residuals from `draw`, all under model set 0.
template <typename Draw>
Stream single_set_stream(std::size_t count, Draw draw) {
  Stream s;
  RangeEncoder enc(s.bytes);
  OpenEncoder coder;
  for (std::size_t i = 0; i < count; ++i) {
    coder.encode(enc, 0, draw());
    s.sets.push_back(0);
  }
  enc.finish();
  return s;
}

TEST(ResidualOracle, OpenEncoderWritesResidualEncoderStreams) {
  Pcg32 rng(11);
  Bytes a, b;
  RangeEncoder enc_a(a), enc_b(b);
  ResidualEncoder coder;
  OpenEncoder open;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t z = rng.next_u64() >> rng.bounded(64);
    coder.encode(enc_a, z);
    open.encode(enc_b, 0, z);
  }
  enc_a.finish();
  enc_b.finish();
  EXPECT_EQ(a, b);
}

TEST(ResidualOracle, SmallResidualsMatchUnderDamage) {
  Pcg32 rng(21);
  expect_equivalent_under_damage(single_set_stream(
      240, [&]() -> std::uint64_t { return rng.bounded(6) == 0 ? rng.bounded(8) : 0; }));
}

TEST(ResidualOracle, MixedResidualsMatchUnderDamage) {
  Pcg32 rng(22);
  expect_equivalent_under_damage(single_set_stream(120, [&]() -> std::uint64_t {
    const unsigned k = rng.bounded(33);  // classes 0..32, the fpzip-32 range
    if (k == 0) return 0;
    return (1ull << (k - 1)) | (rng.next_u64() & ((1ull << (k - 1)) - 1));
  }));
}

TEST(ResidualOracle, WideResidualsMatchUnderDamage) {
  // Classes above 33 split their raw bits into a high and a low word.
  Pcg32 rng(23);
  expect_equivalent_under_damage(single_set_stream(48, [&]() -> std::uint64_t {
    if (rng.bounded(4) == 0) return rng.bounded(3);
    const unsigned k = 34 + rng.bounded(31);  // classes 34..64
    return (1ull << (k - 1)) | (rng.next_u64() & ((1ull << (k - 1)) - 1));
  }));
}

TEST(ResidualOracle, TwoModelSetsOnOneStreamMatchUnderDamage) {
  // The GRIB2 layout: bitmap runs under set 0, then coefficients under set 1.
  Pcg32 rng(24);
  Stream s;
  RangeEncoder enc(s.bytes);
  OpenEncoder coder;
  for (int i = 0; i < 16; ++i) {
    coder.encode(enc, 0, rng.bounded(40));
    s.sets.push_back(0);
  }
  for (int i = 0; i < 120; ++i) {
    coder.encode(enc, 1, rng.next_u32() >> rng.bounded(32));
    s.sets.push_back(1);
  }
  enc.finish();
  expect_equivalent_under_damage(s);
}

TEST(ResidualOracle, ClassOverflowMatchesUnderDamage) {
  Pcg32 rng(25);
  Stream s;
  RangeEncoder enc(s.bytes);
  OpenEncoder coder;
  for (int i = 0; i < 20; ++i) {
    coder.encode(enc, 0, rng.bounded(300));
    s.sets.push_back(0);
  }
  coder.encode_overflow(enc, 0);
  s.sets.push_back(0);
  for (int i = 0; i < 4; ++i) {
    coder.encode(enc, 0, rng.bounded(300));
    s.sets.push_back(0);
  }
  enc.finish();

  const Outcome intact = run_oracle(s.bytes, s.sets);
  ASSERT_EQ(intact.threw_at, 20);  // the stream does reach the error
  expect_equivalent_under_damage(s);
}

TEST(ResidualOracle, EveryTrailerValueMatches) {
  // A trailer past the bytes before it is rejected by both decoders; any
  // other value moves the split between range-coded bytes and side buffer.
  Pcg32 rng(26);
  const Stream s = single_set_stream(
      200, [&]() -> std::uint64_t { return rng.next_u32() >> rng.bounded(32); });
  const std::size_t before_trailer = s.bytes.size() - RangeEncoder::kTrailerBytes;
  ASSERT_LT(trailer_of(s.bytes), before_trailer);
  for (std::uint32_t raw = 0; raw <= before_trailer + 16; ++raw) {
    const Bytes damaged = with_trailer(s.bytes, raw);
    const Outcome production = run_production(damaged, s.sets);
    ASSERT_EQ(production, run_oracle(damaged, s.sets)) << "trailer " << raw;
    EXPECT_EQ(production.rejected, raw > before_trailer) << "trailer " << raw;
  }
  for (const std::uint32_t raw : {0xffffffffu, 0x80000000u}) {
    EXPECT_TRUE(run_production(with_trailer(s.bytes, raw), s.sets).rejected);
  }
}

TEST(ResidualOracle, RawReadPastTheSideBufferMatchesUnderDamage) {
  // Drop the side buffer's last bytes and shrink the trailer to match: the
  // last symbols' raw bits are gone, so both decoders throw at one symbol.
  Pcg32 rng(27);
  const Stream s = single_set_stream(80, [&]() -> std::uint64_t {
    const unsigned k = 2 + rng.bounded(63);  // classes 2..64, every symbol has raw bits
    return (1ull << (k - 1)) | (rng.next_u64() & ((1ull << (k - 1)) - 1));
  });
  const std::uint32_t raw_bytes = trailer_of(s.bytes);
  for (const std::uint32_t cut : {1u, 3u, 9u, 40u}) {
    Bytes shorter = s.bytes;
    const auto dropped = static_cast<std::ptrdiff_t>(RangeEncoder::kTrailerBytes + cut);
    shorter.erase(shorter.end() - dropped, shorter.end());
    ByteWriter(shorter).u32(raw_bytes - cut);
    const Stream cut_stream{shorter, s.sets};
    const Outcome production = run_production(shorter, s.sets);
    ASSERT_FALSE(production.rejected);
    ASSERT_GE(production.threw_at, 0) << "cut " << cut;
    expect_equivalent_under_damage(cut_stream);
  }
}

TEST(ResidualOracle, StreamShorterThanItsTrailerIsRejected) {
  for (std::size_t len = 0; len < RangeEncoder::kTrailerBytes; ++len) {
    const Bytes tiny(len, 0);
    EXPECT_TRUE(run_production(tiny, {0}).rejected) << len;
    EXPECT_TRUE(run_oracle(tiny, {0}).rejected) << len;
  }
}

}  // namespace
}  // namespace cesm::comp
