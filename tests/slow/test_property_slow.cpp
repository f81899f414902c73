// Slow (label: slow) heavyweight property sweeps: multi-seed conformance
// over every variant.
// The fast single-seed versions live in
// tests/compress/test_roundtrip_property.cpp; these widen the net for the
// scheduled CI job.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "compress/variants.h"
#include "support/generators.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

constexpr std::uint64_t kSweepSeeds[] = {0x51ee9ull, 0x51eebull, 0x51eedull,
                                         0x51ef1ull, 0x51ef3ull};

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

bool bits_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class LosslessSweepSlow : public ::testing::TestWithParam<std::string> {};

// Five seeds x five hostile regimes x a large field: lossless means every
// bit pattern, every time.
TEST_P(LosslessSweepSlow, BitExactAcrossSeedsAndRegimes) {
  const CodecPtr codec = make_variant(GetParam());
  ASSERT_TRUE(codec->is_lossless());
  for (std::uint64_t seed : kSweepSeeds) {
    SCOPED_TRACE(testgen::seed_banner(seed));
    std::vector<std::vector<float>> datasets;
    datasets.push_back(testgen::smooth_field(65536, seed));
    datasets.push_back(testgen::noisy_field(65536, hash_combine(seed, 1)));
    datasets.push_back(testgen::denormal_field(65536, hash_combine(seed, 2)));
    datasets.push_back(testgen::tiny_field(65536, hash_combine(seed, 3)));
    {
      auto salted = testgen::lognormal_field(65536, hash_combine(seed, 4));
      testgen::salt_specials(salted, hash_combine(seed, 5), 0.02);
      datasets.push_back(std::move(salted));
    }
    for (std::size_t d = 0; d < datasets.size(); ++d) {
      const auto& data = datasets[d];
      const RoundTrip rt = round_trip(*codec, data, Shape::d2(16, data.size() / 16));
      EXPECT_TRUE(bits_equal(data, rt.reconstructed))
          << GetParam() << " dataset " << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLossless, LosslessSweepSlow,
                         ::testing::Values("NetCDF-4", "fpzip-32"),
                         [](const auto& info) { return sanitize(info.param); });

class IsabelaBoundSweepSlow : public ::testing::TestWithParam<double> {};

// ISABELA's error contract across seeds and field shapes. The codec
// corrects to half a step of eps * max(|spline estimate|, floor), so the
// *absolute* error is bounded by eps times the field scale everywhere,
// while the per-point *relative* bound can be exceeded where the estimate
// overshoots |x| (window edges, zero crossings) — tolerate a tiny rate.
TEST_P(IsabelaBoundSweepSlow, ErrorContractHoldsAcrossRegimes) {
  const double eps = GetParam() / 100.0;
  char name[16];
  std::snprintf(name, sizeof name, "ISA-%.1f", GetParam());
  const CodecPtr codec = make_variant(name);
  for (std::uint64_t seed : kSweepSeeds) {
    SCOPED_TRACE(testgen::seed_banner(seed));
    for (const auto& data : {testgen::smooth_field(50000, seed),
                             testgen::noisy_field(50000, hash_combine(seed, 1)),
                             testgen::lognormal_field(50000, hash_combine(seed, 2))}) {
      const RoundTrip rt = round_trip(*codec, data, Shape::d1(data.size()));
      double field_max = 0.0;
      for (float v : data) field_max = std::max(field_max, std::fabs(static_cast<double>(v)));
      std::size_t rel_violations = 0;
      for (std::size_t i = 0; i < data.size(); ++i) {
        const double err = std::fabs(data[i] - rt.reconstructed[i]);
        ASSERT_LE(err, 2.0 * eps * field_max + 1e-6)
            << name << " absolute error escaped the field-scale bound at " << i;
        const double rel = err / std::max(1e-6, std::fabs(static_cast<double>(data[i])));
        if (rel > 2.0 * eps) ++rel_violations;
      }
      EXPECT_LE(rel_violations, data.size() / 500)
          << name << " relative bound violated too often";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperVariants, IsabelaBoundSweepSlow,
                         ::testing::Values(0.1, 0.5, 1.0));

}  // namespace
}  // namespace cesm::comp
