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
      "GRIB2:3 91c30b450017f0ab f91fe6773257efba",
      "APAX-2 b9334aa5de8cdcce 803a31e032ae9144",
      "APAX-4 b546d292a3d25ebd 7be7d4e5c1e76307",
      "APAX-5 a4f547b46177099b 8e6622b84e239d36",
      "fpzip-24 41bffb660d1a12fd a64ce7196c008a05",
      "fpzip-16 b4550ea97e891ff3 6e1840a6653684a9",
      "ISA-0.1 56cbf62350926da1 18250bcafde79ac4",
      "ISA-0.5 67dff92636dd33e8 108de112cfa74374",
      "ISA-1.0 90ca5ac820999578 108de112cfa74374",
      "fpzip-32 0e56463f882c3e1f 62efcd37619ca7bb",
      "NetCDF-4 469cc3340d922e4e 62efcd37619ca7bb",
  };
  EXPECT_EQ(digests(smooth_field(), Shape::d2(kRows, kCols)), expected);
}

TEST(CodecPin, FilledFieldStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 70c5f261090cc455 235931e6a0b059c7",
      "APAX-2 3c02aebd72f7c566 97be905ef066fe25",
      "APAX-4 6b29d061f9fb5695 b342667bf7e36f9a",
      "APAX-5 11fd6fb3234e5ad0 3bbe91a32e39097d",
      "fpzip-24 e89fde2db00aaefa 3bb97e9f73843151",
      "fpzip-16 7db84f51bcbee4f2 db5002ee713134d1",
      "ISA-0.1 740bc81b40db1468 d54ba175ecb425c6",
      "ISA-0.5 455ad3ff62a8890e e0a81771e516f500",
      "ISA-1.0 d9014e4de6dfd02b 405bcc5d7d7d0b45",
      "fpzip-32 2c601f2f5fb92e94 e78641d90d80cf89",
      "NetCDF-4 11f5d05571e7c858 e78641d90d80cf89",
  };
  EXPECT_EQ(digests(filled_field(), Shape::d2(kRows, kCols), kFill), expected);
}

TEST(CodecPin, SmoothOddLength1dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 4f773bd4ca28bd62 a0edde86e9be108c",
      "APAX-2 8104ab0a8704ea3d 8161a1ad7007aee3",
      "APAX-4 0d4007c28898400b 1cd2fbe8b37afb05",
      "APAX-5 85bb563cf6287fa7 fe3131aa4fb0fd14",
      "fpzip-24 9ee3cc2ccbc5dad1 2515c38e67af0158",
      "fpzip-16 9ebd3ac698dcbb14 106cb75639414f26",
      "ISA-0.1 8b6ed12f37d7e8fd a56424dc8f2fdc46",
      "ISA-0.5 fb01609ad979bbdb 522e7eb0b239d5f8",
      "ISA-1.0 f517ac2f05912a73 f28ba2fd816ecded",
      "fpzip-32 a42b39fb1376829c c9440532771f722e",
      "NetCDF-4 a2cf918213d8274e c9440532771f722e",
  };
  EXPECT_EQ(digests(testgen::smooth_field(1021, 0xAB), Shape::d1(1021)), expected);
}

TEST(CodecPin, SubnormalOddLength1dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 67e29a93db7a802b 777d371fb9a3eb6b",
      "APAX-2 dfe10b3f14399759 9dcce00aa2c28740",
      "APAX-4 5ef33c935da2ca77 3dca79382a6a2eea",
      "APAX-5 8614f738fb921a4c cf378097b48b43cb",
      "fpzip-24 8b6cd483d1356703 804f04912f47719a",
      "fpzip-16 b187a0b5085b76eb f904255d5fe618b7",
      "ISA-0.1 3413ee3012d21d54 69a5d277b31d7398",
      "ISA-0.5 548a71c6b0afa917 485ff579d9989a12",
      "ISA-1.0 0b048a5beb0665fc 36f84326b6f04a28",
      "fpzip-32 0050f36794768bf8 cbb67d66d674f7c4",
      "NetCDF-4 e8beb9df0c63bdf2 cbb67d66d674f7c4",
  };
  EXPECT_EQ(digests(testgen::denormal_field(1021, 0xAB), Shape::d1(1021)), expected);
}

TEST(CodecPin, Subnormal2dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 ee81d3c933141f64 bfbaecb627e92325",
      "APAX-2 4b5b7d88920309e2 87d508a37699a2a4",
      "APAX-4 f2a913545d6b8159 842eb732be65a18d",
      "APAX-5 fc565f316e11ebb8 3c8ef6a40e8a48bc",
      "fpzip-24 995c80b52d34ea16 cd13763fb413d1cc",
      "fpzip-16 5f8d82cd40a9d7ba be3c8bdb4be50d5f",
      "ISA-0.1 a97d9d6a046cedff 1855130f2705834f",
      "ISA-0.5 bc24115ee4af38f0 4fcec1801a833d60",
      "ISA-1.0 8cc9ceab0c743c27 14c5584db6424ccf",
      "fpzip-32 0bbc432218952482 ff4f82ab48eef0d5",
      "NetCDF-4 144d57a9d66c9fe2 ff4f82ab48eef0d5",
  };
  EXPECT_EQ(digests(testgen::denormal_field(4096, 0xAB), Shape::d2(4, 1024)), expected);
}

TEST(CodecPin, Smooth3dStreamsAndReconstructionsAreBitExact) {
  const std::vector<std::string> expected = {
      "GRIB2:3 ac80c9d403dc90fe c2957081e24bdc78",
      "APAX-2 55c86ff3f7043fc2 ff182463e21c6154",
      "APAX-4 d1552db2750ea4bd c9a279ed58ab61f2",
      "APAX-5 7435a5cf444ef60f ace3cf1560338a9b",
      "fpzip-24 913b4c16d02ce489 948bebb9666371b0",
      "fpzip-16 b915b47d0a742afa 99dc25c2d6239d4d",
      "ISA-0.1 9d0c47e49917a882 2b104f05a872d68e",
      "ISA-0.5 ec3bfdb56fcc4017 2135c018da1ddb34",
      "ISA-1.0 d0e3ff3a6eafc7bd efb21b9bc500f4bf",
      "fpzip-32 dcb7901137f595c0 6b168163731659eb",
      "NetCDF-4 2529723de747abce 6b168163731659eb",
  };
  EXPECT_EQ(digests(testgen::smooth_field(3 * 17 * 29, 0xAC), Shape::d3(3, 17, 29)),
            expected);
}

}  // namespace
}  // namespace cesm::comp
