#include "compress/rangecoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <span>
#include <vector>

#include "compress/residual.h"
#include "compress/variants.h"
#include "support/residual_oracle.h"
#include "util/rng.h"
#include "util/trace.h"

namespace cesm::comp {
namespace {

TEST(RangeCoder, BitsRoundTripWithAdaptiveModel) {
  Pcg32 rng(1);
  std::vector<bool> bits;
  for (int i = 0; i < 20000; ++i) bits.push_back(rng.bounded(10) < 3);  // 30% ones

  Bytes buf;
  {
    RangeEncoder enc(buf);
    BitModel model;
    for (bool b : bits) enc.encode(model, b);
    enc.finish();
  }
  {
    oracle::RangeDecoder dec(buf);
    BitModel model;
    for (bool b : bits) ASSERT_EQ(dec.decode(model), b);
  }
}

TEST(RangeCoder, SkewedBitsCompressBelowOneBitPerSymbol) {
  // 5% ones: entropy ~0.29 bits/symbol; the adaptive coder should get
  // well under 1 bit/symbol.
  Pcg32 rng(2);
  std::vector<bool> bits;
  for (int i = 0; i < 50000; ++i) bits.push_back(rng.bounded(100) < 5);
  Bytes buf;
  RangeEncoder enc(buf);
  BitModel model;
  for (bool b : bits) enc.encode(model, b);
  enc.finish();
  EXPECT_LT(buf.size() * 8, bits.size() / 2);
}

TEST(RangeCoder, RawBitsRoundTrip) {
  // Raw bits bypass the range coder: they fill the side buffer LSB first,
  // 64-bit words, fields crossing word boundaries at every width 1..64.
  Pcg32 rng(3);
  std::vector<std::pair<std::uint64_t, unsigned>> vals;
  std::size_t total_bits = 0;
  Bytes buf;
  {
    RangeEncoder enc(buf);
    for (int i = 0; i < 5000; ++i) {
      const unsigned nbits = 1 + rng.bounded(64);
      const std::uint64_t v = rng.next_u64() & (~0ull >> (64 - nbits));
      vals.emplace_back(v, nbits);
      total_bits += nbits;
      enc.encode_raw(v, nbits);
    }
    enc.finish();
  }
  // 5 range-coded bytes (no decisions), the packed bits, the trailer.
  const std::size_t raw_bytes = (total_bits + 7) / 8;
  ASSERT_EQ(buf.size(), 5 + raw_bytes + RangeEncoder::kTrailerBytes);
  EXPECT_EQ(ByteReader(std::span(buf).last(4)).u32(), raw_bytes);
  {
    oracle::RangeDecoder dec(buf);
    for (const auto& [v, nbits] : vals) ASSERT_EQ(dec.decode_raw(nbits), v);
    // The last byte's unused high bits are zero, and past them is the end.
    const unsigned pad = static_cast<unsigned>(raw_bytes * 8 - total_bits);
    if (pad > 0) EXPECT_EQ(dec.decode_raw(pad), 0u);
    EXPECT_THROW(dec.decode_raw(1), FormatError);
  }
}

TEST(RangeCoder, MixedModelAndRawStreams) {
  Pcg32 rng(4);
  std::vector<bool> bits;
  std::vector<std::uint32_t> raws;
  Bytes buf, bits_only;
  {
    RangeEncoder enc(buf), enc_bits(bits_only);
    BitModel model, model_bits;
    for (int i = 0; i < 3000; ++i) {
      const bool b = rng.bounded(4) == 0;
      bits.push_back(b);
      enc.encode(model, b);
      enc_bits.encode(model_bits, b);
      const std::uint32_t v = rng.next_u32() & 0xfff;
      raws.push_back(v);
      enc.encode_raw(v, 12);
    }
    enc.finish();
    enc_bits.finish();
  }
  // The raw bits leave the range-coded bytes as they are: the stream is
  // the bits-only stream's range part, 4500 packed raw bytes, the trailer.
  const std::size_t range_bytes = bits_only.size() - RangeEncoder::kTrailerBytes;
  ASSERT_EQ(buf.size(), range_bytes + 4500 + RangeEncoder::kTrailerBytes);
  EXPECT_TRUE(std::equal(bits_only.begin(), bits_only.begin() + range_bytes, buf.begin()));
  EXPECT_EQ(ByteReader(std::span(buf).last(4)).u32(), 4500u);
  {
    oracle::RangeDecoder dec(buf);
    BitModel model;
    for (int i = 0; i < 3000; ++i) {
      ASSERT_EQ(dec.decode(model), bits[static_cast<std::size_t>(i)]);
      ASSERT_EQ(dec.decode_raw(12), raws[static_cast<std::size_t>(i)]);
    }
  }
}

TEST(ResidualCoder, MagnitudesRoundTrip) {
  std::vector<std::uint64_t> values = {0, 1, 2, 3, 127, 128, 65535, 1ull << 30,
                                       (1ull << 33) + 12345, ~0ull >> 1};
  Bytes buf;
  {
    RangeEncoder enc(buf);
    ResidualEncoder coder;
    for (auto v : values) coder.encode(enc, v);
    enc.finish();
  }
  {
    ResidualDecoder<> dec(buf);
    for (auto v : values) ASSERT_EQ(dec.decode(), v);
  }
}

TEST(ResidualCoder, SmallResidualsCompressTightly) {
  // Mostly-zero residual streams (the prediction success case) must cost
  // far less than a bit... well, than a byte per symbol.
  Pcg32 rng(5);
  Bytes buf;
  RangeEncoder enc(buf);
  ResidualEncoder coder;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    coder.encode(enc, rng.bounded(50) == 0 ? rng.bounded(8) : 0);
  }
  enc.finish();
  EXPECT_LT(buf.size(), static_cast<std::size_t>(kN) / 8);
}

// Per symbol of class k the encoder tallies k + 1 class decisions and, for
// k > 1, k - 1 raw bits.
TEST(ResidualCoder, TallyCountsDecisionsAndRawBits) {
  Bytes buf;
  RangeEncoder enc(buf);
  ResidualEncoder coder;
  for (const std::uint64_t v : {0ull, 1ull, 3ull, 200ull, ~0ull}) coder.encode(enc, v);
  enc.finish();
  EXPECT_EQ(coder.tally().symbols, 5u);
  EXPECT_EQ(coder.tally().class_decisions, 1u + 2u + 3u + 9u + 65u);
  EXPECT_EQ(coder.tally().raw_bits, 0u + 0u + 1u + 7u + 63u);
}

// A codec adds its streams' tallies to the codec.residual_* counters on
// encode; decoding adds nothing.
TEST(ResidualCoder, CodecEncodeAddsTallyToCounters) {
  const std::vector<float> data = {1.0f, 1.5f, 2.0f, 8.0f, -3.0f, 0.25f, 4.0f, 4.0f};
  const CodecPtr codec = make_variant("fpzip-24");
  const auto before = trace::counters();
  const Bytes stream = codec->encode(data, Shape::d1(data.size()));
  const auto mid = trace::counters();
  (void)codec->decode(stream);
  const auto after = trace::counters();
  EXPECT_EQ(mid.at("codec.residual_symbols") - before.at("codec.residual_symbols"),
            data.size());
  EXPECT_GE(mid.at("codec.residual_class_decisions") -
                before.at("codec.residual_class_decisions"),
            data.size());
  for (const char* name : {"codec.residual_symbols", "codec.residual_class_decisions",
                           "codec.residual_raw_bits"}) {
    EXPECT_EQ(after.at(name), mid.at(name)) << name;
  }
}

// Only the first run of a validity bitmap may be empty (a bitmap that
// starts invalid); a later empty run would never advance the decode.
TEST(ResidualCoder, ValidityRunsRejectAnEmptyRunAfterTheFirst) {
  const auto runs_stream = [](std::initializer_list<std::uint64_t> runs) {
    Bytes buf;
    RangeEncoder enc(buf);
    ResidualEncoder coder;
    for (const std::uint64_t run : runs) coder.encode(enc, run);
    enc.finish();
    return buf;
  };
  const Bytes leading_invalid = runs_stream({0, 3, 5});
  ResidualDecoder<> ok(leading_invalid);
  EXPECT_EQ(decode_validity_runs(ok, 0, 8, "overflow"),
            (std::vector<std::uint8_t>{0, 0, 0, 1, 1, 1, 1, 1}));
  for (const Bytes& bad : {runs_stream({5, 0, 3}), runs_stream({0, 0, 8}), Bytes(9, 0)}) {
    ResidualDecoder<> dec(bad);
    EXPECT_THROW((void)decode_validity_runs(dec, 0, 8, "overflow"), FormatError);
  }
}

TEST(RangeCoder, EmptyStreamDecodesNothing) {
  Bytes buf;
  {
    RangeEncoder enc(buf);
    enc.finish();
  }
  // The range coder's 5-byte flush, no raw bytes, a zero trailer.
  ASSERT_EQ(buf, (Bytes{0, 0, 0, 0, 0, 0, 0, 0, 0}));
  ResidualDecoder<> dec(buf);  // priming on a tiny stream must not crash
  oracle::RangeDecoder oracle_dec(buf);
  EXPECT_THROW(oracle_dec.decode_raw(1), FormatError);
  EXPECT_THROW(ResidualDecoder<>(std::span(buf).first(3)), FormatError);
}

}  // namespace
}  // namespace cesm::comp
