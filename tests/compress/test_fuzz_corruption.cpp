// Corruption fuzzing: random byte flips in valid streams must never
// crash, hang, or invoke UB — every codec either throws a library error
// or returns a (garbage but well-formed) buffer. This is the safety
// property an archive system needs when media rot meets old files.
//
// A parameter ending in "+fill" encodes a field with fill values under
// that fill, so the validity-bitmap decoders (GRIB2's native bitmap, the
// SpecialValueCodec wrapper's) are fuzzed too.

#include <gtest/gtest.h>

#include <cmath>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "compress/isabela/isabela.h"
#include "compress/variants.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

/// The variant a test parameter names; a name ending in "+fill" is the
/// variant under fill 1e35.
struct FuzzVariant {
  CodecPtr codec;
  std::optional<float> fill;
};

FuzzVariant fuzz_variant(std::string name) {
  constexpr std::string_view kFillSuffix = "+fill";
  std::optional<float> fill;
  if (name.ends_with(kFillSuffix)) {
    name.resize(name.size() - kFillSuffix.size());
    fill = 1.0e35f;
  }
  return {make_variant(name, fill), fill};
}

/// A variant and its stream of a 1-D field of `n` points; "+fill" fields
/// hold masked runs and isolated fill points.
struct Encoded {
  CodecPtr codec;
  Bytes stream;
};

Encoded encode_small(const std::string& name, std::size_t n) {
  const auto [codec, fill] = fuzz_variant(name);
  Encoded e{codec, {}};
  std::vector<float> data(n);
  Pcg32 rng(3);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(std::sin(i * 0.05) * 40.0 + rng.uniform(-1.0, 1.0));
    if (fill && ((i / 37) % 3 == 1 || i % 23 == 0)) data[i] = *fill;
  }
  e.stream = e.codec->encode(data, Shape::d1(n));
  return e;
}

/// true: decoded; false: FormatError. Any other error fails the test.
bool decodes_or_format_error(const Codec& codec, std::span<const std::uint8_t> stream,
                             const std::string& what) {
  try {
    const std::vector<float> out = codec.decode(stream);
    EXPECT_LE(out.size(), wire::kMaxDecodeElements) << what;
    return true;
  } catch (const FormatError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << e.what();
    return false;
  }
}

std::uint32_t last_u32(const Bytes& b) {
  return ByteReader(std::span(b).last(4)).u32();
}

void set_last_u32(Bytes& b, std::uint32_t v) {
  for (std::size_t k = 0; k < 4; ++k) {
    b[b.size() - 4 + k] = static_cast<std::uint8_t>(v >> (8 * k));
  }
}

class CorruptionFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(CorruptionFuzz, ByteFlipsNeverCrash) {
  const auto [codec, fill] = fuzz_variant(GetParam());
  std::vector<float> data(3000);
  Pcg32 data_rng(1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(i * 0.01) * 40.0 + data_rng.uniform(-1.0, 1.0));
    // Masked runs of varying length plus isolated points.
    if (fill && ((i / 97) % 3 == 1 || i % 41 == 0)) data[i] = *fill;
  }
  const Bytes original = codec->encode(data, Shape::d1(data.size()));

  Pcg32 rng(0xf022);
  int decoded_ok = 0, threw = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Bytes corrupted = original;
    const int flips = 1 + static_cast<int>(rng.bounded(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t pos = rng.bounded(static_cast<std::uint32_t>(corrupted.size()));
      corrupted[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    }
    try {
      const std::vector<float> out = codec->decode(corrupted);
      // Garbage data is acceptable; a wrong element count is not, unless
      // the flip hit the header's own count fields — in which case the
      // decoder believed a different (validated) size.
      EXPECT_LE(out.size(), wire::kMaxDecodeElements);
      ++decoded_ok;
    } catch (const Error&) {
      ++threw;  // expected path
    }
  }
  // Both outcomes legal; the assertion is that we reached this line 200
  // times without UB/crash. Record the split for the curious.
  RecordProperty("decoded_ok", decoded_ok);
  RecordProperty("threw", threw);
  EXPECT_EQ(decoded_ok + threw, 200);
}

// Exhaustive damage on a small ISABELA stream: one default (1024-sample)
// window and a 100-sample tail, so both the shared basis and a transient
// one are on the decode path. Every truncation prefix must throw
// FormatError, and every single-bit flip must either decode or throw
// FormatError: no other error type, no crash, no UB under asan-ubsan.
TEST(IsabelaCorruption, EveryPrefixAndSingleBitFlipDecodesOrThrowsFormatError) {
  const IsabelaCodec codec(0.5);
  std::vector<float> data(1024 + 100);
  Pcg32 data_rng(2);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(i * 0.01) * 40.0 + data_rng.uniform(-1.0, 1.0));
  }
  const Bytes original = codec.encode(data, Shape::d1(data.size()));
  ASSERT_EQ(codec.decode(original).size(), data.size());

  for (std::size_t len = 0; len < original.size(); ++len) {
    const std::string what = "prefix " + std::to_string(len);
    EXPECT_FALSE(decodes_or_format_error(codec, {original.data(), len}, what));
  }
  Bytes damaged = original;
  std::size_t decoded = 0;
  for (std::size_t bit = 0; bit < 8 * damaged.size(); ++bit) {
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    decoded += decodes_or_format_error(codec, damaged, "bit " + std::to_string(bit)) ? 1 : 0;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  RecordProperty("flips_decoded", static_cast<int>(decoded));
  RecordProperty("flips", static_cast<int>(8 * damaged.size()));
}

// --- Residual streams: trailer and side buffer -------------------------------
//
// fpzip, GRIB2 and ISABELA streams end in a residual stream (range-coded
// classes, the raw-bit side buffer, a u32 raw byte count); so does the
// special-value wrapper, after its own bitmap stream. Each damage below
// must decode or throw FormatError: no other error, no hang, no UB.

class ResidualStreamCorruption : public ::testing::TestWithParam<const char*> {};

TEST_P(ResidualStreamCorruption, EveryTruncationDecodesOrThrowsFormatError) {
  const Encoded e = encode_small(GetParam(), 400);
  for (std::size_t len = 0; len < e.stream.size(); ++len) {
    decodes_or_format_error(*e.codec, {e.stream.data(), len}, "prefix " + std::to_string(len));
  }
}

TEST_P(ResidualStreamCorruption, EverySingleBitFlipDecodesOrThrowsFormatError) {
  const Encoded e = encode_small(GetParam(), 400);
  Bytes damaged = e.stream;
  for (std::size_t bit = 0; bit < 8 * damaged.size(); ++bit) {
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    decodes_or_format_error(*e.codec, damaged, "bit " + std::to_string(bit));
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

// The stream's last residual stream is its tail: a raw byte count past the
// bytes before it must throw.
TEST_P(ResidualStreamCorruption, TrailerOverrunningTheStreamThrows) {
  const Encoded e = encode_small(GetParam(), 400);
  ASSERT_EQ(e.codec->decode(e.stream).size(), 400u);
  const auto size = static_cast<std::uint32_t>(e.stream.size());
  for (const std::uint32_t raw : {size, size - 3, 0x7fffffffu, 0xffffffffu}) {
    Bytes damaged = e.stream;
    set_last_u32(damaged, raw);
    EXPECT_THROW((void)e.codec->decode(damaged), FormatError) << "trailer " << raw;
  }
}

// Drop the side buffer's last byte and count it out of the trailer: the
// class chain is intact, so the last symbols' raw reads run past the end.
TEST_P(ResidualStreamCorruption, RawReadPastTheSideBufferThrows) {
  const Encoded e = encode_small(GetParam(), 400);
  const std::uint32_t raw = last_u32(e.stream);
  ASSERT_GT(raw, 0u);
  Bytes damaged(e.stream.begin(), e.stream.end() - 5);
  ByteWriter(damaged).u32(raw - 1);
  EXPECT_THROW((void)e.codec->decode(damaged), FormatError);
}

// Streams of the layout before the side buffer (magics FPZ1, GRB2, ISA1,
// SPC1: the version digit one lower) are rejected, not misread.
TEST_P(ResidualStreamCorruption, PreviousLayoutMagicIsRejected) {
  const Encoded e = encode_small(GetParam(), 400);
  Bytes old = e.stream;
  ASSERT_TRUE(old[3] == '2' || old[3] == '3') << "magic " << old[3];
  --old[3];
  EXPECT_THROW((void)e.codec->decode(old), FormatError);
}

INSTANTIATE_TEST_SUITE_P(ResidualCodecs, ResidualStreamCorruption,
                         ::testing::Values("fpzip-24", "fpzip-16", "GRIB2:3", "GRIB2:3+fill",
                                           "ISA-0.5", "fpzip-24+fill"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// --- Fill bitmaps: a damaged bitmap length must not hang the run decoder ----
//
// A run decoder fed zeros reads empty runs; only the first run may be
// empty, so a later one throws instead of looping without advancing.

// SPC2's u64 bitmap_bytes (after magic, fill, any_missing and the u64
// element count) set to every value from 0 to its true size.
TEST(FillBitmapCorruption, EverySpecialValueBitmapLengthFinishesOrThrows) {
  const Encoded e = encode_small("fpzip-24+fill", 400);
  constexpr std::size_t kBitmapBytesAt = 4 + 4 + 1 + 8;
  const std::uint64_t true_size =
      ByteReader(std::span(e.stream).subspan(kBitmapBytesAt)).u64();
  ASSERT_GT(true_size, 0u);
  for (std::uint64_t v = 0; v <= true_size; ++v) {
    Bytes damaged = e.stream;
    for (std::size_t k = 0; k < 8; ++k) {
      damaged[kBitmapBytesAt + k] = static_cast<std::uint8_t>(v >> (8 * k));
    }
    const bool ok =
        decodes_or_format_error(*e.codec, damaged, "bitmap_bytes " + std::to_string(v));
    if (v == true_size) EXPECT_TRUE(ok);
  }
}

// GRIB2's bitmap shares the coefficients' residual stream, whose length is
// the rest of the stream: its raw byte count, from 0 to its true value,
// moves the end of the range-coded bitmap and coefficient classes.
TEST(FillBitmapCorruption, EveryGrib2RawByteCountFinishesOrThrows) {
  const Encoded e = encode_small("GRIB2:3+fill", 400);
  const std::uint32_t true_raw = last_u32(e.stream);
  for (std::uint32_t v = 0; v <= true_raw; ++v) {
    Bytes damaged = e.stream;
    set_last_u32(damaged, v);
    const bool ok =
        decodes_or_format_error(*e.codec, damaged, "raw bytes " + std::to_string(v));
    if (v == true_raw) EXPECT_TRUE(ok);
  }
}

// The stream cut right after GRIB2's header, with an empty side buffer:
// the range decoder reads zeros past the end, so every run decodes empty.
TEST(FillBitmapCorruption, Grib2BitmapOfZerosThrows) {
  const Encoded e = encode_small("GRIB2:3+fill", 400);
  constexpr std::size_t kGrib2HeaderBytes = 4 + 1 + 8 + 8 + 4 + 4 + 1 + 1 + 1 + 4;
  Bytes damaged(e.stream.begin(), e.stream.begin() + kGrib2HeaderBytes);
  ByteWriter(damaged).u32(0);
  EXPECT_THROW((void)e.codec->decode(damaged), FormatError);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, CorruptionFuzz,
                         ::testing::Values("NetCDF-4", "fpzip-24", "fpzip-32", "APAX-4",
                                           "ISA-0.5", "GRIB2:3", "GRIB2:3+fill",
                                           "fpzip-24+fill"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace cesm::comp
