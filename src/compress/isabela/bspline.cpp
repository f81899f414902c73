#include "compress/isabela/bspline.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace cesm::comp {

void solve_banded_spd(std::vector<std::vector<double>>& band, std::span<double> b,
                      std::size_t bw) {
  const std::size_t n = b.size();
  CESM_REQUIRE(band.size() == n);
  // In-place banded Cholesky: A = L Lᵀ with band[r][d] holding L(r+d, r)
  // after factorization (we reuse the upper-band storage symmetrically).
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
      // L(j+d, j) = (A(j+d, j) - sum_k L(j+d,k) L(j,k)) / L(j,j)
      for (std::size_t k = (j + d > bw ? j + d - bw : 0); k < j; ++k) {
        const std::size_t d1 = j + d - k;
        const std::size_t d2 = j - k;
        if (d1 <= bw && d2 <= bw) v -= band[k][d1] * band[k][d2];
      }
      band[j][d] = v / ljj;
    }
  }
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t d = 1; d <= bw && d <= i; ++d) {
      v -= band[i - d][d] * b[i - d];
    }
    b[i] = v / band[i][0];
  }
  // Backward substitution Lᵀ x = y.
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

std::vector<double> CubicBSpline::evaluate_all() const {
  std::vector<double> out(n_);
  for (std::size_t i = 0; i < n_; ++i) out[i] = evaluate(i);
  return out;
}

CubicBSpline CubicBSpline::fit(std::span<const float> values, std::size_t coeff_count) {
  const std::size_t n = values.size();
  CESM_REQUIRE(n >= 1);
  coeff_count = std::max<std::size_t>(4, coeff_count);

  constexpr std::size_t kBandwidth = 3;
  CubicBSpline probe(std::vector<double>(coeff_count, 0.0), n);

  // Accumulate the banded normal equations N = AᵀA, rhs = Aᵀy.
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
  // Tiny ridge keeps the factorization stable when a coefficient has thin
  // support (short tail windows).
  double trace = 0.0;
  for (std::size_t j = 0; j < coeff_count; ++j) trace += band[j][0];
  const double ridge = 1e-9 * (trace / static_cast<double>(coeff_count)) + 1e-12;
  for (std::size_t j = 0; j < coeff_count; ++j) band[j][0] += ridge;

  solve_banded_spd(band, rhs, kBandwidth);
  return CubicBSpline(std::move(rhs), n);
}

}  // namespace cesm::comp
