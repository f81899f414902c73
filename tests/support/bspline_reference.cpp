// The per-window spline fit, verbatim (bspline_reference.h).

#include "support/bspline_reference.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace cesm::comp::reference {

namespace {

void bspline_weights(double u, double w[4]) {
  const double u2 = u * u;
  const double u3 = u2 * u;
  w[0] = (1.0 - 3.0 * u + 3.0 * u2 - u3) / 6.0;
  w[1] = (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0;
  w[2] = (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0;
  w[3] = u3 / 6.0;
}

}  // namespace

void solve_banded_spd(std::vector<std::vector<double>>& band, std::span<double> b,
                      std::size_t bw) {
  const std::size_t n = b.size();
  CESM_REQUIRE(band.size() == n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = band[j][0];
    for (std::size_t k = (j > bw ? j - bw : 0); k < j; ++k) {
      const std::size_t d = j - k;
      if (d <= bw) diag -= band[k][d] * band[k][d];
    }
    if (diag <= 0.0) throw InvalidArgument("banded system not positive definite");
    const double ljj = std::sqrt(diag);
    band[j][0] = ljj;
    for (std::size_t d = 1; d <= bw && j + d < n; ++d) {
      double v = band[j][d];
      for (std::size_t k = (j + d > bw ? j + d - bw : 0); k < j; ++k) {
        const std::size_t d1 = j + d - k;
        const std::size_t d2 = j - k;
        if (d1 <= bw && d2 <= bw) v -= band[k][d1] * band[k][d2];
      }
      band[j][d] = v / ljj;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t d = 1; d <= bw && d <= i; ++d) {
      v -= band[i - d][d] * b[i - d];
    }
    b[i] = v / band[i][0];
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t d = 1; d <= bw && ii + d < n; ++d) {
      v -= band[ii][d] * b[ii + d];
    }
    b[ii] = v / band[ii][0];
  }
}

CubicBSpline::CubicBSpline(std::vector<double> coefficients, std::size_t sample_count)
    : coeff_(std::move(coefficients)), n_(sample_count) {
  CESM_REQUIRE(coeff_.size() >= 4);
  CESM_REQUIRE(n_ >= 1);
}

void CubicBSpline::locate(std::size_t i, std::size_t& segment, double& u) const {
  const std::size_t segments = coeff_.size() - 3;
  const double t = n_ > 1
                       ? static_cast<double>(i) / static_cast<double>(n_ - 1) *
                             static_cast<double>(segments)
                       : 0.0;
  segment = std::min(static_cast<std::size_t>(t), segments - 1);
  u = t - static_cast<double>(segment);
}

double CubicBSpline::evaluate(std::size_t i) const {
  std::size_t seg;
  double u, w[4];
  locate(i, seg, u);
  bspline_weights(u, w);
  return w[0] * coeff_[seg] + w[1] * coeff_[seg + 1] + w[2] * coeff_[seg + 2] +
         w[3] * coeff_[seg + 3];
}

CubicBSpline CubicBSpline::fit(std::span<const float> values, std::size_t coeff_count) {
  const std::size_t n = values.size();
  CESM_REQUIRE(n >= 1);
  coeff_count = std::max<std::size_t>(4, coeff_count);

  constexpr std::size_t kBandwidth = 3;
  CubicBSpline probe(std::vector<double>(coeff_count, 0.0), n);

  std::vector<std::vector<double>> band(coeff_count, std::vector<double>(kBandwidth + 1, 0.0));
  std::vector<double> rhs(coeff_count, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t seg;
    double u, w[4];
    probe.locate(i, seg, u);
    bspline_weights(u, w);
    const double y = static_cast<double>(values[i]);
    for (std::size_t a = 0; a < 4; ++a) {
      rhs[seg + a] += w[a] * y;
      for (std::size_t b = a; b < 4; ++b) {
        band[seg + a][b - a] += w[a] * w[b];
      }
    }
  }
  double trace = 0.0;
  for (std::size_t j = 0; j < coeff_count; ++j) trace += band[j][0];
  const double ridge = 1e-9 * (trace / static_cast<double>(coeff_count)) + 1e-12;
  for (std::size_t j = 0; j < coeff_count; ++j) band[j][0] += ridge;

  solve_banded_spd(band, rhs, kBandwidth);
  return CubicBSpline(std::move(rhs), n);
}

}  // namespace cesm::comp::reference
