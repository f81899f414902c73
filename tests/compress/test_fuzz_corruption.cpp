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

#include "compress/isabela/isabela.h"
#include "compress/variants.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

class CorruptionFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(CorruptionFuzz, ByteFlipsNeverCrash) {
  constexpr std::string_view kFillSuffix = "+fill";
  std::string name = GetParam();
  std::optional<float> fill;
  if (name.ends_with(kFillSuffix)) {
    name.resize(name.size() - kFillSuffix.size());
    fill = 1.0e35f;
  }
  const CodecPtr codec = make_variant(name, fill);
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

  // true: decoded; false: FormatError. Anything else fails the test.
  const auto decodes = [&](std::span<const std::uint8_t> stream, const std::string& what) {
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
  };

  for (std::size_t len = 0; len < original.size(); ++len) {
    EXPECT_FALSE(decodes({original.data(), len}, "prefix " + std::to_string(len)));
  }
  Bytes damaged = original;
  std::size_t decoded = 0;
  for (std::size_t bit = 0; bit < 8 * damaged.size(); ++bit) {
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    decoded += decodes(damaged, "bit " + std::to_string(bit)) ? 1 : 0;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  RecordProperty("flips_decoded", static_cast<int>(decoded));
  RecordProperty("flips", static_cast<int>(8 * damaged.size()));
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
