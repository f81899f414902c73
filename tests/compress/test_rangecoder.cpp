#include "compress/rangecoder.h"

#include <gtest/gtest.h>

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
  Pcg32 rng(3);
  std::vector<std::pair<std::uint32_t, unsigned>> vals;
  Bytes buf;
  {
    RangeEncoder enc(buf);
    for (int i = 0; i < 5000; ++i) {
      const unsigned nbits = 1 + rng.bounded(32);
      const std::uint32_t v =
          static_cast<std::uint32_t>(rng.next_u64() & ((nbits == 32) ? 0xffffffffull
                                                                     : ((1ull << nbits) - 1)));
      vals.emplace_back(v, nbits);
      enc.encode_raw(v, nbits);
    }
    enc.finish();
  }
  {
    oracle::RangeDecoder dec(buf);
    for (const auto& [v, nbits] : vals) ASSERT_EQ(dec.decode_raw(nbits), v);
  }
}

TEST(RangeCoder, MixedModelAndRawStreams) {
  Pcg32 rng(4);
  std::vector<bool> bits;
  std::vector<std::uint32_t> raws;
  Bytes buf;
  {
    RangeEncoder enc(buf);
    BitModel model;
    for (int i = 0; i < 3000; ++i) {
      const bool b = rng.bounded(4) == 0;
      bits.push_back(b);
      enc.encode(model, b);
      const std::uint32_t v = rng.next_u32() & 0xfff;
      raws.push_back(v);
      enc.encode_raw(v, 12);
    }
    enc.finish();
  }
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

TEST(RangeCoder, EmptyStreamDecodesNothing) {
  Bytes buf;
  {
    RangeEncoder enc(buf);
    enc.finish();
  }
  ResidualDecoder<> dec(buf);  // priming on a tiny stream must not crash
  SUCCEED();
}

}  // namespace
}  // namespace cesm::comp
