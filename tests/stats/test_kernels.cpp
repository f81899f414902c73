// Parity suite: the fused blocked kernels must reproduce the legacy scalar
// two-pass results within tight ULP bounds, including on adversarial
// inputs — large-offset fields (Z3-like), heavily masked ocean fields,
// single-element and all-masked spans, and block-boundary mask patterns.

#include "stats/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "support/stats_kernels_reference.h"
#include "util/rng.h"

namespace cesm::stats::kernels {
namespace {

/// ULP distance between two doubles (0 when bit-identical; huge across
/// sign changes, which the assertions below never legitimately cross).
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;
  if (std::isnan(a) || std::isnan(b)) return std::numeric_limits<std::uint64_t>::max();
  auto key = [](double v) {
    std::int64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    // Map the sign-magnitude double ordering onto a monotone integer line.
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t ka = key(a);
  const std::int64_t kb = key(b);
  return ka > kb ? static_cast<std::uint64_t>(ka - kb)
                 : static_cast<std::uint64_t>(kb - ka);
}

void expect_ulp_near(double fused, double legacy, std::uint64_t max_ulps,
                     const char* what) {
  EXPECT_LE(ulp_distance(fused, legacy), max_ulps)
      << what << ": fused=" << fused << " legacy=" << legacy;
}

/// The summation kernels reassociate (blocks, lanes, Chan merges), so the
/// parity bound for accumulated quantities is a small relative tolerance
/// rather than exact ULP identity; 1e-11 relative is ~2e4 ULPs, orders of
/// magnitude tighter than any downstream threshold.
void expect_rel_near(double fused, double legacy, const char* what,
                     double rel = 1e-11) {
  const double scale = std::max({std::fabs(fused), std::fabs(legacy), 1e-300});
  EXPECT_LE(std::fabs(fused - legacy), rel * scale)
      << what << ": fused=" << fused << " legacy=" << legacy;
}

std::vector<float> random_field(std::size_t n, std::uint64_t seed, double lo = -1.0,
                                double hi = 1.0) {
  Pcg32 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(lo, hi));
  return v;
}

/// Contiguous "ocean basin" invalid runs plus scattered single invalid
/// points: exercises all-valid blocks, all-invalid blocks, and mixed ones.
std::vector<std::uint8_t> ocean_mask(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> mask(n, 1);
  Pcg32 rng(seed);
  std::size_t i = 0;
  while (i < n) {
    const std::size_t land = 500 + rng.bounded(6000);
    i += land;
    const std::size_t basin = 2000 + rng.bounded(8000);
    for (std::size_t j = i; j < std::min(n, i + basin); ++j) mask[j] = 0;
    i += basin;
  }
  for (int k = 0; k < 50 && n > 0; ++k) mask[rng.bounded(static_cast<std::uint32_t>(n))] = 0;
  return mask;
}

void check_moments_parity(std::span<const float> data,
                          std::span<const std::uint8_t> mask) {
  const MomentAccum fused = moments(data, mask);
  const reference::TwoPassSummary legacy = reference::summarize_two_pass(data, mask);
  ASSERT_EQ(fused.count, legacy.count);
  if (fused.count == 0) return;
  expect_ulp_near(fused.min, legacy.min, 0, "min");
  expect_ulp_near(fused.max, legacy.max, 0, "max");
  expect_rel_near(fused.mean, legacy.mean, "mean");
  expect_rel_near(fused.m2, legacy.m2, "m2", 1e-9);
}

TEST(KernelParity, MomentsRandomUnmasked) {
  const auto data = random_field(100'000, 0xA1, -50.0, 50.0);
  check_moments_parity(data, {});
}

TEST(KernelParity, MomentsLargeOffsetZ3Like) {
  // Z3-like: geopotential-height magnitudes with a spread of millimetres.
  std::vector<float> data(60'000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 37000.0f + 0.001f * static_cast<float>(i % 17);
  }
  check_moments_parity(data, {});
  // Sanity: the fused single-pass path must not cancel catastrophically.
  const MomentAccum a = moments(std::span<const float>(data));
  EXPECT_GT(std::sqrt(a.m2 / static_cast<double>(a.count)), 0.003);
  EXPECT_LT(std::sqrt(a.m2 / static_cast<double>(a.count)), 0.007);
}

TEST(KernelParity, MomentsHeavilyMaskedOcean) {
  const auto data = random_field(90'000, 0xB2, 270.0, 305.0);
  const auto mask = ocean_mask(data.size(), 0xB3);
  check_moments_parity(data, mask);
}

TEST(KernelParity, MomentsSingleElement) {
  const std::vector<float> data = {42.5f};
  check_moments_parity(data, {});
  const MomentAccum a = moments(std::span<const float>(data));
  EXPECT_EQ(a.count, 1u);
  EXPECT_DOUBLE_EQ(a.mean, 42.5);
  EXPECT_DOUBLE_EQ(a.m2, 0.0);
}

TEST(KernelParity, MomentsAllMaskedSpan) {
  const auto data = random_field(5'000, 0xC1);
  const std::vector<std::uint8_t> mask(data.size(), 0);
  const MomentAccum a = moments(std::span<const float>(data), mask);
  EXPECT_EQ(a.count, 0u);
}

TEST(KernelParity, MomentsEmptySpan) {
  EXPECT_EQ(moments(std::span<const float>{}).count, 0u);
}

TEST(KernelParity, MomentsBlockBoundaryMaskPatterns) {
  // Exactly one all-valid block, one all-invalid block, one mixed block,
  // plus a ragged tail — every per-block path in one input.
  const std::size_t n = 3 * kBlock + 17;
  const auto data = random_field(n, 0xD4, -3.0, 3.0);
  std::vector<std::uint8_t> mask(n, 1);
  for (std::size_t i = kBlock; i < 2 * kBlock; ++i) mask[i] = 0;
  for (std::size_t i = 2 * kBlock; i < 3 * kBlock; i += 3) mask[i] = 0;
  check_moments_parity(data, mask);
}

TEST(KernelParity, ComomentsRandomAndMasked) {
  const auto x = random_field(80'000, 0xE1, -10.0, 10.0);
  auto y = x;
  Pcg32 rng(0xE2);
  for (auto& v : y) v += static_cast<float>(rng.uniform(-0.01, 0.01));

  for (const auto& mask :
       {std::vector<std::uint8_t>{}, ocean_mask(x.size(), 0xE3)}) {
    const CoMomentAccum fused =
        comoments(std::span<const float>(x), std::span<const float>(y), mask);
    const CoMomentAccum legacy = reference::comoments_two_pass(x, y, mask);
    ASSERT_EQ(fused.count, legacy.count);
    expect_rel_near(fused.mean_x, legacy.mean_x, "mean_x");
    expect_rel_near(fused.mean_y, legacy.mean_y, "mean_y");
    expect_rel_near(fused.sxx, legacy.sxx, "sxx", 1e-9);
    expect_rel_near(fused.syy, legacy.syy, "syy", 1e-9);
    expect_rel_near(fused.sxy, legacy.sxy, "sxy", 1e-9);
    // The derived correlation coefficient agrees far beyond the 1e-5
    // acceptance resolution of the rho test.
    const double rho_fused = fused.sxy / std::sqrt(fused.sxx * fused.syy);
    const double rho_legacy = legacy.sxy / std::sqrt(legacy.sxx * legacy.syy);
    EXPECT_NEAR(rho_fused, rho_legacy, 1e-12);
  }
}

TEST(KernelParity, ComomentsLargeOffset) {
  // Both series near 3.7e4: co-moment cancellation territory.
  std::vector<float> x(40'000), y(40'000);
  Pcg32 rng(0xF1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(37000.0 + rng.uniform(-0.5, 0.5));
    y[i] = x[i] + static_cast<float>(rng.uniform(-0.001, 0.001));
  }
  const CoMomentAccum fused =
      comoments(std::span<const float>(x), std::span<const float>(y));
  const CoMomentAccum legacy = reference::comoments_two_pass(x, y);
  expect_rel_near(fused.sxy, legacy.sxy, "sxy", 1e-8);
  expect_rel_near(fused.sxx, legacy.sxx, "sxx", 1e-8);
}

TEST(KernelParity, ErrorNormsMatchScalar) {
  const auto x = random_field(70'000, 0xAB, -100.0, 100.0);
  auto y = x;
  Pcg32 rng(0xAC);
  for (auto& v : y) v += static_cast<float>(rng.uniform(-0.5, 0.5));

  for (const auto& mask :
       {std::vector<std::uint8_t>{}, ocean_mask(x.size(), 0xAD)}) {
    const ErrorAccum fused =
        error_norms(std::span<const float>(x), std::span<const float>(y), mask);
    const ErrorAccum legacy = reference::error_norms_scalar(x, y, mask);
    ASSERT_EQ(fused.count, legacy.count);
    expect_ulp_near(fused.max_abs, legacy.max_abs, 0, "max_abs");
    expect_rel_near(fused.sum_sq, legacy.sum_sq, "sum_sq");
  }
}

TEST(KernelParity, ZScoreSumsMatchScalar) {
  // Build per-point sufficient statistics from a synthetic 12-member
  // ensemble, then compare the fused and scalar leave-one-out kernels.
  const std::size_t n = 30'000;
  const std::size_t members = 12;
  std::vector<std::vector<float>> ens(members);
  for (std::size_t m = 0; m < members; ++m) {
    NormalSampler rng(hash_combine(0x5EED, m));
    ens[m].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      ens[m][i] = static_cast<float>(std::sin(i * 0.01) * 5.0 + rng.next());
    }
  }
  // A handful of degenerate points (identical across members) to exercise
  // the spread floor on both sides.
  for (std::size_t m = 0; m < members; ++m) {
    for (std::size_t i = 0; i < n; i += 997) ens[m][i] = 3.14f;
  }
  std::vector<double> sum(n, 0.0), sum_sq(n, 0.0);
  for (std::size_t m = 0; m < members; ++m) {
    accumulate_sum_sq(ens[m], {}, sum, sum_sq);
  }

  std::vector<float> recon = ens[4];
  for (std::size_t i = 0; i < n; i += 5) recon[i] += 0.02f;

  for (const auto& mask : {std::vector<std::uint8_t>{}, ocean_mask(n, 0xAE)}) {
    const ZScoreAccum fused = zscore_sums(recon, ens[4], sum, sum_sq, mask,
                                          static_cast<double>(members), 3e-7);
    const ZScoreAccum legacy = reference::zscore_sums_scalar(
        recon, ens[4], sum, sum_sq, mask, static_cast<double>(members), 3e-7);
    EXPECT_EQ(fused.used, legacy.used);
    expect_rel_near(fused.sum_z2, legacy.sum_z2, "sum_z2", 1e-10);
  }
}

TEST(KernelParity, AccumulateSumSqBitwiseIdentical) {
  // Element-wise updates are not reassociated: results must be bit-exact
  // against the naive loop.
  const auto x = random_field(2 * kBlock + 100, 0xBC, -5.0, 5.0);
  const auto mask = ocean_mask(x.size(), 0xBD);
  std::vector<double> sum_a(x.size(), 1.0), sq_a(x.size(), 2.0);
  std::vector<double> sum_b = sum_a, sq_b = sq_a;

  accumulate_sum_sq(x, mask, sum_a, sq_a);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!mask[i]) continue;
    const double v = static_cast<double>(x[i]);
    sum_b[i] += v;
    sq_b[i] += v * v;
  }
  EXPECT_EQ(sum_a, sum_b);
  EXPECT_EQ(sq_a, sq_b);
}

TEST(KernelParity, UpdateExtremesMatchesScalar) {
  const std::size_t n = kBlock + 333;
  const auto mask = ocean_mask(n, 0xCE);
  constexpr float inf = std::numeric_limits<float>::infinity();
  std::vector<float> max1(n, -inf), max2(n, -inf), min1(n, inf), min2(n, inf);
  std::vector<std::uint32_t> argmax(n, 0), argmin(n, 0);
  auto ref_max1 = max1;
  auto ref_max2 = max2;
  auto ref_min1 = min1;
  auto ref_min2 = min2;
  auto ref_argmax = argmax;
  auto ref_argmin = argmin;

  for (std::uint32_t m = 0; m < 9; ++m) {
    const auto x = random_field(n, 0xD000 + m, -20.0, 20.0);
    update_extremes(x, mask, m, max1, max2, argmax, min1, min2, argmin);
    for (std::size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      const float v = x[i];
      if (v > ref_max1[i]) {
        ref_max2[i] = ref_max1[i];
        ref_max1[i] = v;
        ref_argmax[i] = m;
      } else if (v > ref_max2[i]) {
        ref_max2[i] = v;
      }
      if (v < ref_min1[i]) {
        ref_min2[i] = ref_min1[i];
        ref_min1[i] = v;
        ref_argmin[i] = m;
      } else if (v < ref_min2[i]) {
        ref_min2[i] = v;
      }
    }
  }
  EXPECT_EQ(max1, ref_max1);
  EXPECT_EQ(max2, ref_max2);
  EXPECT_EQ(min1, ref_min1);
  EXPECT_EQ(min2, ref_min2);
  EXPECT_EQ(argmax, ref_argmax);
  EXPECT_EQ(argmin, ref_argmin);
}

TEST(KernelHelpers, AllValidAndCountValid) {
  EXPECT_TRUE(all_valid({}));
  const std::vector<std::uint8_t> ones(1000, 1);
  EXPECT_TRUE(all_valid(ones));
  std::vector<std::uint8_t> holed = ones;
  holed[999] = 0;
  EXPECT_FALSE(all_valid(holed));
  EXPECT_EQ(count_valid(ones), 1000u);
  EXPECT_EQ(count_valid(holed), 999u);
  EXPECT_EQ(count_valid({}, 77), 77u);  // empty mask: everything valid
}

TEST(KernelHelpers, MergeIsOrderInsensitiveWithinTolerance) {
  const auto data = random_field(3 * kBlock, 0xEF, -7.0, 7.0);
  // Whole-span result vs. merging three sub-span results in reverse order.
  const MomentAccum whole = moments(std::span<const float>(data));
  MomentAccum merged;
  for (int b = 2; b >= 0; --b) {
    merged.merge(moments(std::span<const float>(data).subspan(
        static_cast<std::size_t>(b) * kBlock, kBlock)));
  }
  EXPECT_EQ(whole.count, merged.count);
  EXPECT_NEAR(whole.mean, merged.mean, 1e-12);
  EXPECT_NEAR(whole.m2, merged.m2, 1e-7 * whole.m2 + 1e-12);
  EXPECT_DOUBLE_EQ(whole.min, merged.min);
  EXPECT_DOUBLE_EQ(whole.max, merged.max);
}

}  // namespace
}  // namespace cesm::stats::kernels
