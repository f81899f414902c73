#include "support/stats_kernels_reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

// The seed's scalar two-pass loops, verbatim, compiled with the project's
// base flags (stats_kernels_reference.h).

namespace cesm::stats::kernels {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

namespace reference {

TwoPassSummary summarize_two_pass(std::span<const float> data,
                                  std::span<const std::uint8_t> mask) {
  CESM_REQUIRE(mask.empty() || mask.size() == data.size());
  TwoPassSummary s;
  s.min = kInf;
  s.max = -kInf;
  double sum = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const double x = static_cast<double>(data[i]);
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
    sum += x;
    ++s.count;
  }
  if (s.count == 0) return TwoPassSummary{};
  s.mean = sum / static_cast<double>(s.count);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const double d = static_cast<double>(data[i]) - s.mean;
    s.m2 += d * d;
  }
  return s;
}

CoMomentAccum comoments_two_pass(std::span<const float> x, std::span<const float> y,
                                 std::span<const std::uint8_t> mask) {
  CESM_REQUIRE(x.size() == y.size());
  CESM_REQUIRE(mask.empty() || mask.size() == x.size());
  CoMomentAccum m;
  double sx = 0.0, sy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    sx += static_cast<double>(x[i]);
    sy += static_cast<double>(y[i]);
    ++m.count;
  }
  if (m.count == 0) return m;
  m.mean_x = sx / static_cast<double>(m.count);
  m.mean_y = sy / static_cast<double>(m.count);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const double dx = static_cast<double>(x[i]) - m.mean_x;
    const double dy = static_cast<double>(y[i]) - m.mean_y;
    m.sxx += dx * dx;
    m.syy += dy * dy;
    m.sxy += dx * dy;
  }
  return m;
}

ErrorAccum error_norms_scalar(std::span<const float> original,
                              std::span<const float> reconstructed,
                              std::span<const std::uint8_t> mask) {
  CESM_REQUIRE(original.size() == reconstructed.size());
  CESM_REQUIRE(mask.empty() || mask.size() == original.size());
  ErrorAccum acc;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const double e =
        static_cast<double>(original[i]) - static_cast<double>(reconstructed[i]);
    acc.sum_sq += e * e;
    acc.max_abs = std::max(acc.max_abs, std::fabs(e));
    ++acc.count;
  }
  return acc;
}

ZScoreAccum zscore_sums_scalar(std::span<const float> data, std::span<const float> orig,
                               std::span<const double> sum,
                               std::span<const double> sum_sq,
                               std::span<const std::uint8_t> mask, double member_count,
                               double floor_rel) {
  ZScoreAccum acc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!mask.empty() && !mask[i]) continue;
    const double xm = static_cast<double>(orig[i]);
    const double mu = (sum[i] - xm) / (member_count - 1.0);
    const double var =
        std::max(0.0, (sum_sq[i] - xm * xm) / (member_count - 1.0) - mu * mu);
    const double floor_sd = floor_rel * std::fabs(mu);
    if (var <= floor_sd * floor_sd) continue;
    const double z = (static_cast<double>(data[i]) - mu) / std::sqrt(var);
    acc.sum_z2 += z * z;
    ++acc.used;
  }
  return acc;
}

}  // namespace reference

}  // namespace cesm::stats::kernels
