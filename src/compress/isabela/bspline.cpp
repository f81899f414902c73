#include "compress/isabela/bspline.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "util/error.h"
#include "util/trace.h"

namespace cesm::comp {

namespace {
constexpr std::size_t kBandwidth = 3;
}  // namespace

bool factor_banded_spd(Band& band) {
  constexpr std::size_t bw = kBandwidth;
  const std::size_t n = band.size();
  // The upper-band storage is reused symmetrically for L.
  for (std::size_t j = 0; j < n; ++j) {
    double diag = band[j][0];
    for (std::size_t k = (j > bw ? j - bw : 0); k < j; ++k) {
      const std::size_t d = j - k;
      if (d <= bw) diag -= band[k][d] * band[k][d];
    }
    if (diag <= 0.0) return false;
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
  return true;
}

void solve_factored_banded(const Band& factor, std::span<double> b) {
  constexpr std::size_t bw = kBandwidth;
  const std::size_t n = b.size();
  CESM_REQUIRE(factor.size() == n);
  // Forward substitution L y = b.
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t d = 1; d <= bw && d <= i; ++d) {
      v -= factor[i - d][d] * b[i - d];
    }
    b[i] = v / factor[i][0];
  }
  // Backward substitution Lᵀ x = y.
  for (std::size_t ii = n; ii-- > 0;) {
    double v = b[ii];
    for (std::size_t d = 1; d <= bw && ii + d < n; ++d) {
      v -= factor[ii][d] * b[ii + d];
    }
    b[ii] = v / factor[ii][0];
  }
}

SplineBasis::SplineBasis(std::size_t n, std::size_t coeff_count)
    : segment_(n), weights_(n), factor_(coeff_count, std::array<double, 4>{}) {
  CESM_REQUIRE(n >= 1);
  CESM_REQUIRE(coeff_count >= 4);
  trace::add(trace::Counter::kIsabelaBasisBuilt);

  // Locate each sample: segment and local parameter u in [0, 1). Then
  // accumulate the banded normal matrix AᵀA in sample order.
  const std::size_t segments = coeff_count - 3;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n > 1 ? static_cast<double>(i) / static_cast<double>(n - 1) *
                                 static_cast<double>(segments)
                           : 0.0;
    const std::size_t seg = std::min(static_cast<std::size_t>(t), segments - 1);
    const double u = t - static_cast<double>(seg);
    double w[4];
    bspline_weights(u, w);
    segment_[i] = static_cast<std::uint32_t>(seg);
    weights_[i] = {w[0], w[1], w[2], w[3]};
    for (std::size_t a = 0; a < 4; ++a) {
      for (std::size_t b = a; b < 4; ++b) factor_[seg + a][b - a] += w[a] * w[b];
    }
  }
  // Tiny ridge keeps the factorization stable when a coefficient has thin
  // support (short tail windows).
  double diagonal_sum = 0.0;
  for (std::size_t j = 0; j < coeff_count; ++j) diagonal_sum += factor_[j][0];
  const double ridge = 1e-9 * (diagonal_sum / static_cast<double>(coeff_count)) + 1e-12;
  for (std::size_t j = 0; j < coeff_count; ++j) factor_[j][0] += ridge;

  positive_definite_ = factor_banded_spd(factor_);
}

const SplineBasis& SplineBasis::shared(std::size_t n, std::size_t coeff_count) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, std::size_t>, std::unique_ptr<const SplineBasis>>
      bases;
  const std::lock_guard<std::mutex> lock(mu);
  auto& slot = bases[{n, coeff_count}];
  if (!slot) slot = std::make_unique<const SplineBasis>(n, coeff_count);
  return *slot;
}

std::vector<double> SplineBasis::fit(std::span<const float> values) const {
  CESM_REQUIRE(values.size() == sample_count());
  if (!positive_definite_) throw InvalidArgument("banded system not positive definite");
  // Only the right-hand side Aᵀy depends on the values.
  std::vector<double> rhs(coeff_count(), 0.0);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const double y = static_cast<double>(values[i]);
    double* r = rhs.data() + segment_[i];
    const std::array<double, 4>& w = weights_[i];
    r[0] += w[0] * y;
    r[1] += w[1] * y;
    r[2] += w[2] * y;
    r[3] += w[3] * y;
  }
  solve_factored_banded(factor_, rhs);
  return rhs;
}

}  // namespace cesm::comp
