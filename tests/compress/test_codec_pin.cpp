// Codec conformance digests: the FNV-1a hash of the encoded stream and of
// the decoded floats for every paper variant, plus fpzip-32 and NetCDF-4,
// on two fixed fields. The round-trip tests only check bounds, so they
// would not notice a decoder that reconstructs a different last bit or an
// encoder that emits a different (still decodable) stream; these pins do.
//
// The second field carries fill values, so GRIB2 decodes its native
// validity bitmap and every other variant decodes the SpecialValueCodec
// bitmap ahead of its payload.
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

std::vector<std::string> digests(const std::vector<float>& field,
                                 std::optional<float> fill) {
  const std::vector<std::string> names = {"GRIB2:3",  "APAX-2",  "APAX-4",  "APAX-5",
                                          "fpzip-24", "fpzip-16", "ISA-0.1", "ISA-0.5",
                                          "ISA-1.0",  "fpzip-32", "NetCDF-4"};
  std::vector<std::string> out;
  for (const std::string& name : names) {
    const CodecPtr codec = make_variant(name, fill);
    const Bytes stream = codec->encode(field, Shape::d2(kRows, kCols));
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
  EXPECT_EQ(digests(smooth_field(), std::nullopt), expected);
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
  EXPECT_EQ(digests(filled_field(), kFill), expected);
}

}  // namespace
}  // namespace cesm::comp
