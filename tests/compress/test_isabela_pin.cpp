// ISABELA conformance digests for the cases CodecPin does not reach: the
// 64-bit path, codecs whose window and coefficient count differ from the
// paper variants' (1024, 32), and a tail window shorter than the
// coefficient count. Each case pins the FNV-1a hash of the stream and of
// the decoded values. A field salted with NaN/±inf has no ISABELA encoding
// and must be rejected.
//
// Only an intended format or reconstruction change may update the
// constants; the test prints the new values on failure.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "compress/isabela/isabela.h"
#include "support/generators.h"
#include "util/cache.h"
#include "util/error.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string digest(std::span<const std::uint8_t> bytes) { return hex64(util::fnv1a64(bytes)); }

template <typename T>
std::string decoded_digest(const std::vector<T>& v) {
  return digest({reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(T)});
}

std::string pin(const IsabelaCodec& codec, const std::vector<float>& field) {
  const Bytes stream = codec.encode(field, Shape::d1(field.size()));
  return digest(stream) + " " + decoded_digest(codec.decode(stream));
}

TEST(IsabelaPin, DoublePathStreamAndReconstructionAreBitExact) {
  // Noisy values with sign changes and more than float precision, so the
  // 64-bit sort order, the float-precision fit and nonzero corrections all
  // show in the digests.
  Pcg32 rng(0xB0);
  std::vector<double> data(3 * 1024 + 333);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 15.0 * std::sin(0.01 * static_cast<double>(i)) + rng.uniform(-30.0, 30.0) +
              rng.uniform(-1.0, 1.0) * 1e-9;
  }
  std::vector<std::string> got;
  for (double pct : {0.1, 0.5, 1.0}) {
    const IsabelaCodec codec(pct);
    const Bytes stream = codec.encode64(data, Shape::d1(data.size()));
    got.push_back(codec.name() + " " + digest(stream) + " " +
                  decoded_digest(codec.decode64(stream)));
  }
  const std::vector<std::string> expected = {
      "ISA-0.1 377c1ed661c9d976 5906f9f5becd5e2d",
      "ISA-0.5 b0b92d22515ac3ef e40720f75c7c2cdf",
      "ISA-1.0 558bc3b1e1dc7266 1fa3ae6cd3fa7b9f",
  };
  EXPECT_EQ(got, expected);
}

TEST(IsabelaPin, NonDefaultWindowShapesAreBitExact) {
  const std::vector<float> field = testgen::smooth_field(2000, 0xB1);
  const std::vector<std::string> got = {
      pin(IsabelaCodec(0.5, 256, 16), field),
      pin(IsabelaCodec(1.0, 64, 64), field),
  };
  const std::vector<std::string> expected = {
      "acd65d465fad465a d50692bb4a074533",
      "ad89acfdfb988345 e205a88c12293fb1",
  };
  EXPECT_EQ(got, expected);
}

TEST(IsabelaPin, SpecialSaltedFieldIsRejected) {
  // NaN/±inf would make their windows' splines non-finite and decode every
  // point of those windows as NaN; the encoder refuses them instead.
  std::vector<float> field = testgen::smooth_field(4 * 1024 + 100, 0xB2);
  testgen::salt_specials(field, 0xB3, 0.002);
  for (const double eps : {0.1, 1.0}) {
    EXPECT_THROW((void)IsabelaCodec(eps).encode(field, Shape::d1(field.size())),
                 InvalidArgument);
  }
}

TEST(IsabelaPin, TailShorterThanCoefficientCountIsBitExact) {
  const std::vector<float> field = testgen::noisy_field(1024 + 20, 0xB4);
  EXPECT_EQ(pin(IsabelaCodec(0.5), field), "e74f62e1948c366e bddedd9513b8b578");
}

}  // namespace
}  // namespace cesm::comp
