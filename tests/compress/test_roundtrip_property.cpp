// Cross-codec property tests: every variant must decode what it encodes,
// deterministically, for every field shape and data regime the climate
// substrate produces — the invariant the whole verification methodology
// rests on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "compress/variants.h"
#include "core/metrics.h"
#include "support/generators.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

enum class Regime { kSmooth, kNoisy, kLogNormal, kTinyMagnitude, kConstant };

std::string regime_name(Regime r) {
  switch (r) {
    case Regime::kSmooth: return "Smooth";
    case Regime::kNoisy: return "Noisy";
    case Regime::kLogNormal: return "LogNormal";
    case Regime::kTinyMagnitude: return "Tiny";
    case Regime::kConstant: return "Constant";
  }
  return "?";
}

std::vector<float> generate(Regime regime, std::size_t n, std::uint64_t seed) {
  switch (regime) {
    case Regime::kSmooth: return testgen::smooth_field(n, seed);
    case Regime::kNoisy: return testgen::noisy_field(n, seed);
    case Regime::kLogNormal: return testgen::lognormal_field(n, seed);
    case Regime::kTinyMagnitude: return testgen::tiny_field(n, seed);
    case Regime::kConstant: return testgen::constant_field(n);
  }
  return {};
}

using Case = std::tuple<std::string, Regime>;

class CodecRoundTrip : public ::testing::TestWithParam<Case> {};

TEST_P(CodecRoundTrip, DecodeInvertsEncodeWithinQuality) {
  const auto& [variant, regime] = GetParam();
  const CodecPtr codec = make_variant(variant);
  const auto data = generate(regime, 6000, 0x5eedull + static_cast<std::uint64_t>(regime));
  const Shape shape = Shape::d2(4, 1500);

  const RoundTrip rt = round_trip(*codec, data, shape);
  ASSERT_EQ(rt.reconstructed.size(), data.size());

  if (codec->is_lossless()) {
    EXPECT_EQ(rt.reconstructed, data);
  } else {
    // Lossy codecs must stay well-correlated on non-degenerate data.
    const core::ErrorMetrics m = core::compare_fields(data, rt.reconstructed);
    if (regime != Regime::kConstant && regime != Regime::kTinyMagnitude &&
        regime != Regime::kLogNormal) {
      EXPECT_GT(m.pearson, 0.99) << variant;
      EXPECT_LT(m.nrmse, 0.05) << variant;
    }
    // And must never produce NaN/Inf from finite input.
    for (float v : rt.reconstructed) ASSERT_TRUE(std::isfinite(v));
  }
}

TEST_P(CodecRoundTrip, EncodeIsDeterministic) {
  const auto& [variant, regime] = GetParam();
  const CodecPtr codec = make_variant(variant);
  const auto data = generate(regime, 3000, 77);
  const Shape shape = Shape::d1(data.size());
  EXPECT_EQ(codec->encode(data, shape), codec->encode(data, shape));
}

TEST_P(CodecRoundTrip, TruncatedStreamNeverCrashes) {
  const auto& [variant, regime] = GetParam();
  const CodecPtr codec = make_variant(variant);
  const auto data = generate(regime, 2000, 88);
  Bytes stream = codec->encode(data, Shape::d1(data.size()));
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, std::size_t{11},
                           stream.size() / 2}) {
    Bytes cut(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(keep));
    try {
      const auto out = codec->decode(cut);
      // Some coders tolerate truncation by zero-padding; output size must
      // still be consistent if no exception is raised.
      EXPECT_EQ(out.size(), keep == 0 ? out.size() : data.size());
    } catch (const Error&) {
      // Throwing FormatError (or any library error) is the expected path.
    }
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> cases;
  for (const char* variant : {"NetCDF-4", "fpzip-16", "fpzip-24", "fpzip-32", "ISA-0.1",
                              "ISA-0.5", "ISA-1.0", "APAX-2", "APAX-4", "APAX-5",
                              "GRIB2:6"}) {
    for (Regime regime : {Regime::kSmooth, Regime::kNoisy, Regime::kLogNormal,
                          Regime::kTinyMagnitude, Regime::kConstant}) {
      cases.emplace_back(variant, regime);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllRegimes, CodecRoundTrip, ::testing::ValuesIn(all_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      std::string name = std::get<0>(info.param) + "_" + regime_name(std::get<1>(info.param));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Conformance: each variant's *advertised contract*, checked per point.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kConformanceSeed = 0xC0DEC5EEDull;

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

/// Bit-pattern equality: NaNs compare equal to themselves, -0.0 != +0.0.
bool bits_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

class LosslessConformance : public ::testing::TestWithParam<std::string> {};

// Lossless means lossless on *every* bit pattern, not just friendly data:
// subnormals, NaN/±inf salting, tiny magnitudes, constants.
TEST_P(LosslessConformance, BitExactOnHostileData) {
  const CodecPtr codec = make_variant(GetParam());
  ASSERT_TRUE(codec->is_lossless()) << GetParam();
  SCOPED_TRACE(testgen::seed_banner(kConformanceSeed));

  std::vector<std::vector<float>> datasets;
  datasets.push_back(testgen::denormal_field(4096, kConformanceSeed));
  datasets.push_back(testgen::tiny_field(4096, hash_combine(kConformanceSeed, 1)));
  datasets.push_back(testgen::constant_field(4096, -0.0f));
  {
    auto salted = testgen::smooth_field(4096, hash_combine(kConformanceSeed, 2));
    testgen::salt_specials(salted, hash_combine(kConformanceSeed, 3), 0.05);
    datasets.push_back(std::move(salted));
  }
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    const auto& data = datasets[d];
    const RoundTrip rt = round_trip(*codec, data, Shape::d2(4, data.size() / 4));
    EXPECT_TRUE(bits_equal(data, rt.reconstructed))
        << GetParam() << " dataset " << d << " is not bit-exact";
  }
}

INSTANTIATE_TEST_SUITE_P(AllLossless, LosslessConformance,
                         ::testing::Values("NetCDF-4", "fpzip-32"),
                         [](const auto& info) { return sanitize(info.param); });

/// The advertised per-point bound of a lossy variant on `data`, or a
/// negative value when the variant advertises none (fixed-rate APAX).
double advertised_bound(const std::string& variant, double value,
                        double data_lo, double data_hi) {
  if (variant.rfind("ISA-", 0) == 0) {
    // ISABELA: per-point relative error <= eps%, 2x headroom for the
    // spline ridge term, 1e-6 floor for near-zero points (same model as
    // tests/compress/test_isabela.cpp).
    const double eps = std::stod(variant.substr(4)) / 100.0;
    return 2.0 * eps * std::max(1e-6, std::fabs(value));
  }
  if (variant.rfind("fpzip-", 0) == 0) {
    // fpzip-p keeps p of 32 bits: relative error ~2^-(p-8) on normal
    // floats (test_fpz uses 2^-15 for p=24).
    const int p = std::stoi(variant.substr(6));
    return std::ldexp(std::fabs(value), -(p - 9));
  }
  if (variant.rfind("GRIB2:", 0) == 0) {
    // GRIB2: absolute half-step of the quantization grid, where the
    // binary scale E grows until the integer range fits 2^28.
    const int d = std::stoi(variant.substr(6));
    const double dec_scale = std::pow(10.0, d);
    int binary_scale = 0;
    while (std::ldexp((data_hi - data_lo) * dec_scale, -binary_scale) >
           static_cast<double>(1ll << 28)) {
      ++binary_scale;
    }
    const double step = std::ldexp(1.0, binary_scale) / dec_scale;
    // The half-step plus slack for the float32 arithmetic of the decode
    // path itself (reference + q*step is evaluated in single precision).
    return 0.5 * step * (1.0 + 1e-4) + 1e-6 + std::fabs(value) * 4.0 * 0x1.0p-23;
  }
  return -1.0;  // no per-point contract
}

class LossyBoundConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(LossyBoundConformance, EveryPointWithinAdvertisedBound) {
  const std::string& variant = GetParam();
  const CodecPtr codec = make_variant(variant);
  ASSERT_FALSE(codec->is_lossless()) << variant;
  SCOPED_TRACE(testgen::seed_banner(kConformanceSeed));

  // Positive smooth field: the regime every lossy variant advertises its
  // bound for (fpzip's relative-error model needs same-sign data).
  const auto data = testgen::smooth_field(20000, kConformanceSeed);
  const auto [lo, hi] = std::minmax_element(data.begin(), data.end());
  const RoundTrip rt = round_trip(*codec, data, Shape::d1(data.size()));
  ASSERT_EQ(rt.reconstructed.size(), data.size());

  std::size_t violations = 0;
  double worst = 0.0;
  std::size_t worst_i = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double bound = advertised_bound(variant, data[i], *lo, *hi);
    ASSERT_GE(bound, 0.0) << variant << " has no advertised per-point bound";
    const double err = std::fabs(static_cast<double>(data[i]) - rt.reconstructed[i]);
    if (err > bound) {
      ++violations;
      if (err - bound > worst) {
        worst = err - bound;
        worst_i = i;
      }
    }
  }
  EXPECT_EQ(violations, 0u) << variant << ": worst excess " << worst << " at index "
                            << worst_i << " (value " << data[worst_i] << ")";
}

INSTANTIATE_TEST_SUITE_P(AdvertisedBounds, LossyBoundConformance,
                         ::testing::Values("ISA-0.1", "ISA-0.5", "ISA-1.0", "fpzip-24",
                                           "fpzip-16", "GRIB2:2", "GRIB2:4"),
                         [](const auto& info) { return sanitize(info.param); });

class FillPreservation : public ::testing::TestWithParam<std::string> {};

// No variant — lossy or not — may alter a fill-masked point: the paper's
// land/ocean masks must survive any round trip bit-for-bit.
TEST_P(FillPreservation, MaskedPointsSurviveExactly) {
  constexpr float kFill = 1.0e20f;
  const std::string& variant = GetParam();
  const CodecPtr codec = make_variant(variant, kFill);
  SCOPED_TRACE(testgen::seed_banner(kConformanceSeed));

  auto data = testgen::smooth_field(12000, hash_combine(kConformanceSeed, 17));
  const auto mask = testgen::fill_mask(data.size(), hash_combine(kConformanceSeed, 18));
  testgen::apply_fill(data, mask, kFill);

  const RoundTrip rt = round_trip(*codec, data, Shape::d2(6, data.size() / 6));
  ASSERT_EQ(rt.reconstructed.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (mask[i] == 0) {
      ASSERT_EQ(rt.reconstructed[i], kFill) << variant << " altered masked point " << i;
    } else {
      ASSERT_TRUE(std::isfinite(rt.reconstructed[i]))
          << variant << " corrupted valid point " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllVariantsWithFill, FillPreservation,
                         ::testing::Values("GRIB2:3", "APAX-2", "APAX-4", "APAX-5",
                                           "fpzip-24", "fpzip-16", "fpzip-32", "ISA-0.1",
                                           "ISA-0.5", "ISA-1.0", "NetCDF-4"),
                         [](const auto& info) { return sanitize(info.param); });

}  // namespace
}  // namespace cesm::comp
