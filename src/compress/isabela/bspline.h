#pragma once
// Uniform cubic B-spline least-squares fitting (ISABELA's curve stage).
//
// ISABELA sorts each window so the data become a smooth monotone curve,
// then approximates that curve with a low-order spline. We fit K control
// coefficients of a uniform cubic B-spline over [0, n-1] by ordinary least
// squares; the normal equations are banded (bandwidth 3) and solved with a
// banded Cholesky factorization.
//
// Everything but the right-hand side depends only on the window shape
// (n, K): each sample's segment and blending weights, and the normal
// matrix AᵀA with its ridge. A SplineBasis computes those once, with the
// normal matrix already factored, so fitting a window is one Aᵀy pass and
// two triangular solves, and evaluating is a table lookup. The arithmetic
// is the per-window formulation's, in the same order, so coefficients and
// estimates are the same doubles; the TUs that do it are built without FMA
// contraction (tests/support/bspline_reference.h keeps the per-window
// formulas as the oracle).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cesm::comp {

/// The four cubic B-spline blending weights at local parameter u.
inline void bspline_weights(double u, double w[4]) {
  const double u2 = u * u;
  const double u3 = u2 * u;
  w[0] = (1.0 - 3.0 * u + 3.0 * u2 - u3) / 6.0;
  w[1] = (3.0 * u3 - 6.0 * u2 + 4.0) / 6.0;
  w[2] = (-3.0 * u3 + 3.0 * u2 + 3.0 * u + 1.0) / 6.0;
  w[3] = u3 / 6.0;
}

/// Banded storage of a symmetric bandwidth-3 matrix: band[r][d] = A(r, r+d).
using Band = std::vector<std::array<double, 4>>;

/// In-place banded Cholesky A = L Lᵀ: afterwards band[r][d] holds
/// L(r+d, r). Returns false (band partly overwritten) if A is not
/// positive definite.
bool factor_banded_spd(Band& band);

/// Solve L Lᵀ x = b for a band factored by factor_banded_spd; overwrites b.
void solve_factored_banded(const Band& factor, std::span<double> b);

/// The least-squares machinery of one window shape: `coeff_count` (>= 4)
/// uniform cubic B-splines over sample indices 0..n-1 (n >= 1). Immutable
/// once built, so one basis serves any number of threads.
class SplineBasis {
 public:
  SplineBasis(std::size_t n, std::size_t coeff_count);

  /// The process-wide basis of one codec window shape, built on first use
  /// and kept for the life of the process. Call it only with a codec's own
  /// parameters, never with values read from a stream: every distinct
  /// shape stays resident.
  static const SplineBasis& shared(std::size_t n, std::size_t coeff_count);

  /// Least-squares coefficients for `values` (sample_count() of them).
  /// Throws InvalidArgument if the normal matrix is not positive definite.
  [[nodiscard]] std::vector<double> fit(std::span<const float> values) const;

  /// The spline with coefficients `coeffs` at sample index i. Inline so
  /// ISABELA's decode loop evaluates point by point, overlapping the range
  /// decoder's serial chain. The first sum is written w1 + w0: equal to
  /// w0 + w1 for every non-NaN term, and the operand order the decoder has
  /// always been compiled to, which decides the sign of a NaN estimate
  /// when two terms are NaN (IsabelaPin's salted field pins it).
  [[nodiscard]] double evaluate(const double* coeffs, std::size_t i) const {
    const double* c = coeffs + segment_[i];
    const std::array<double, 4>& w = weights_[i];
    return w[1] * c[1] + w[0] * c[0] + w[2] * c[2] + w[3] * c[3];
  }

  [[nodiscard]] std::size_t sample_count() const { return segment_.size(); }
  [[nodiscard]] std::size_t coeff_count() const { return factor_.size(); }

 private:
  std::vector<std::uint32_t> segment_;          // first coefficient of sample i
  std::vector<std::array<double, 4>> weights_;  // its four blending weights
  Band factor_;                                 // Cholesky factor of AᵀA + ridge
  bool positive_definite_ = false;
};

}  // namespace cesm::comp
