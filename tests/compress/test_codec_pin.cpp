// Codec conformance digests: the FNV-1a hash of the encoded stream and of
// the decoded floats for every paper variant, plus fpzip-32 and NetCDF-4,
// on six fixed fields. The round-trip tests only check bounds, so they
// would not notice a decoder that reconstructs a different last bit or an
// encoder that emits a different (still decodable) stream; these pins do.
//
// The filled field carries fill values, so GRIB2 decodes its native
// validity bitmap and every other variant decodes the SpecialValueCodec
// bitmap ahead of its payload. The odd 1-D length (1021) leaves a partial
// vector tail in every kernel; the subnormal fields (1-D and 4 x 1024)
// reach the exponent corners of every float transform; the 3-D field takes
// fpzip down the 3-D Lorenzo path.
//
// Only an intended format or reconstruction change may update the
// constants; the test prints the new values on failure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "compress/variants.h"
#include "support/generators.h"
#include "util/cache.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

constexpr std::size_t kRows = 40;
constexpr std::size_t kCols = 56;
constexpr float kFill = 1.0e35f;

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest(std::span<const std::uint8_t> bytes) { return hex64(util::fnv1a64(bytes)); }

std::string digest(const std::vector<float>& v) {
  return digest({reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(float)});
}

/// A smooth 2-D field with a little deterministic noise, so the
/// predictive codecs see a realistic mix of small and larger residuals.
std::vector<float> smooth_field() {
  std::vector<float> v(kRows * kCols);
  Pcg32 rng(0x9e3779b9u);
  constexpr double kTwoPi = 6.283185307179586;
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      const double x = kTwoPi * static_cast<double>(i) / kRows;
      const double y = kTwoPi * static_cast<double>(j) / kCols;
      v[i * kCols + j] = static_cast<float>(250.0 + 20.0 * std::sin(x) * std::cos(y) +
                                            3.0 * std::sin(3.0 * x + 2.0 * y) +
                                            0.01 * rng.uniform(-1.0, 1.0));
    }
  }
  return v;
}

/// The smooth field with an elliptic masked region and a scattered
/// lattice of masked points set to the fill value.
std::vector<float> filled_field() {
  std::vector<float> v = smooth_field();
  for (std::size_t i = 0; i < kRows; ++i) {
    for (std::size_t j = 0; j < kCols; ++j) {
      const double di = (static_cast<double>(i) - 20.0) / 8.0;
      const double dj = (static_cast<double>(j) - 30.0) / 10.0;
      if (di * di + dj * dj < 1.0 || (i * kCols + j) % 13 == 0) v[i * kCols + j] = kFill;
    }
  }
  return v;
}

std::vector<std::string> digests(const std::vector<float>& field, const Shape& shape,
                                 std::optional<float> fill = std::nullopt) {
  const std::vector<std::string> names = {"GRIB2:3",  "APAX-2",  "APAX-4",  "APAX-5",
                                          "fpzip-24", "fpzip-16", "ISA-0.1", "ISA-0.5",
                                          "ISA-1.0",  "fpzip-32", "NetCDF-4"};
  std::vector<std::string> out;
  for (const std::string& name : names) {
    const CodecPtr codec = make_variant(name, fill);
    const Bytes stream = codec->encode(field, shape);
    const std::vector<float> decoded = codec->decode(stream);
    out.push_back(name + " " + digest(stream) + " " + digest(decoded));
  }
  return out;
}

TEST(CodecPin, SmoothFieldStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 ae47e3c9ceb11a74 f91fe6773257efba",
      "APAX-2 b9334aa5de8cdcce 803a31e032ae9144",
      "APAX-4 b546d292a3d25ebd 7be7d4e5c1e76307",
      "APAX-5 a4f547b46177099b 8e6622b84e239d36",
      "fpzip-24 a9970853e061debc a64ce7196c008a05",
      "fpzip-16 cb6ed0b9cdf16749 6e1840a6653684a9",
      "ISA-0.1 1d0bc6d1e7685dc2 18250bcafde79ac4",
      "ISA-0.5 9451949bcfe47125 108de112cfa74374",
      "ISA-1.0 4be1adc7386369d5 108de112cfa74374",
      "fpzip-32 79ecb36ec67a78f4 62efcd37619ca7bb",
      "NetCDF-4 469cc3340d922e4e 62efcd37619ca7bb",
  };
  EXPECT_EQ(digests(smooth_field(), Shape::d2(kRows, kCols)), expected);
}

TEST(CodecPin, FilledFieldStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 5e73d72a58282104 235931e6a0b059c7",
      "APAX-2 fd731e1a60e05584 97be905ef066fe25",
      "APAX-4 34133c3e2f1a2e07 b342667bf7e36f9a",
      "APAX-5 60ba01c6aac3e50e 3bbe91a32e39097d",
      "fpzip-24 c9db98ab8e4a793a 3bb97e9f73843151",
      "fpzip-16 b41de98a9681e2fe db5002ee713134d1",
      "ISA-0.1 3a1ddcb5e187b893 d54ba175ecb425c6",
      "ISA-0.5 c94443b3d129e744 e0a81771e516f500",
      "ISA-1.0 e9092aaccd7e9b28 405bcc5d7d7d0b45",
      "fpzip-32 632baead3ade994d e78641d90d80cf89",
      "NetCDF-4 11f5d05571e7c858 e78641d90d80cf89",
  };
  EXPECT_EQ(digests(filled_field(), Shape::d2(kRows, kCols), kFill), expected);
}

TEST(CodecPin, SmoothOddLength1dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 5f1c2159300d3d90 a0edde86e9be108c",
      "APAX-2 8104ab0a8704ea3d 8161a1ad7007aee3",
      "APAX-4 0d4007c28898400b 1cd2fbe8b37afb05",
      "APAX-5 85bb563cf6287fa7 fe3131aa4fb0fd14",
      "fpzip-24 d090dae68a1edaeb 2515c38e67af0158",
      "fpzip-16 e7c8ae00d9f0d3bd 106cb75639414f26",
      "ISA-0.1 f7250a938aa537f0 a56424dc8f2fdc46",
      "ISA-0.5 0090a7f42ea24b99 522e7eb0b239d5f8",
      "ISA-1.0 b7955681f94c92ed f28ba2fd816ecded",
      "fpzip-32 8efd628a64bd3791 c9440532771f722e",
      "NetCDF-4 a2cf918213d8274e c9440532771f722e",
  };
  EXPECT_EQ(digests(testgen::smooth_field(1021, 0xAB), Shape::d1(1021)), expected);
}

TEST(CodecPin, SubnormalOddLength1dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 a6f898f847d8399a 777d371fb9a3eb6b",
      "APAX-2 dfe10b3f14399759 9dcce00aa2c28740",
      "APAX-4 5ef33c935da2ca77 3dca79382a6a2eea",
      "APAX-5 8614f738fb921a4c cf378097b48b43cb",
      "fpzip-24 86710cd514099f09 804f04912f47719a",
      "fpzip-16 1c208fb8e1c2c3f0 f904255d5fe618b7",
      "ISA-0.1 ad51a7b4674186ed 69a5d277b31d7398",
      "ISA-0.5 9fdbf56ad2e75342 485ff579d9989a12",
      "ISA-1.0 d9289bf06e01fc83 36f84326b6f04a28",
      "fpzip-32 f88ccc6c674439fa cbb67d66d674f7c4",
      "NetCDF-4 e8beb9df0c63bdf2 cbb67d66d674f7c4",
  };
  EXPECT_EQ(digests(testgen::denormal_field(1021, 0xAB), Shape::d1(1021)), expected);
}

TEST(CodecPin, Subnormal2dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 497775f68f3487d9 bfbaecb627e92325",
      "APAX-2 4b5b7d88920309e2 87d508a37699a2a4",
      "APAX-4 f2a913545d6b8159 842eb732be65a18d",
      "APAX-5 fc565f316e11ebb8 3c8ef6a40e8a48bc",
      "fpzip-24 4ae056455978d637 cd13763fb413d1cc",
      "fpzip-16 873a954002934af8 be3c8bdb4be50d5f",
      "ISA-0.1 10634a615999df86 1855130f2705834f",
      "ISA-0.5 51243010bd01321b 4fcec1801a833d60",
      "ISA-1.0 c2dc8fc1375c6ffe 14c5584db6424ccf",
      "fpzip-32 e176ed8029565557 ff4f82ab48eef0d5",
      "NetCDF-4 144d57a9d66c9fe2 ff4f82ab48eef0d5",
  };
  EXPECT_EQ(digests(testgen::denormal_field(4096, 0xAB), Shape::d2(4, 1024)), expected);
}

TEST(CodecPin, Smooth3dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 996b0e1695baa108 c2957081e24bdc78",
      "APAX-2 55c86ff3f7043fc2 ff182463e21c6154",
      "APAX-4 d1552db2750ea4bd c9a279ed58ab61f2",
      "APAX-5 7435a5cf444ef60f ace3cf1560338a9b",
      "fpzip-24 428134531f11b1ca 948bebb9666371b0",
      "fpzip-16 f40f4e02fa64871b 99dc25c2d6239d4d",
      "ISA-0.1 2691a6e4605bb0c6 2b104f05a872d68e",
      "ISA-0.5 1b49edfd96411c9a 2135c018da1ddb34",
      "ISA-1.0 6fe2187c4f637a8a efb21b9bc500f4bf",
      "fpzip-32 08f10fce6d5c50d3 6b168163731659eb",
      "NetCDF-4 2529723de747abce 6b168163731659eb",
  };
  EXPECT_EQ(digests(testgen::smooth_field(3 * 17 * 29, 0xAC), Shape::d3(3, 17, 29)),
            expected);
}

}  // namespace
}  // namespace cesm::comp
