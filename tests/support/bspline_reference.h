#pragma once
// Reference spline fit: the per-window uniform cubic B-spline least-squares
// formulas ISABELA used before its shape-dependent work moved into
// compress::SplineBasis, kept as the oracle that basis must match bit for
// bit. Every call locates each sample, computes its blending weights,
// accumulates the banded normal equations AᵀA and Aᵀy together, adds the
// ridge and solves with a banded Cholesky factorization.
//
// Built into the test binary only, with the project's base flags (no FMA
// contraction on the targets the project builds for).

#include <cstddef>
#include <span>
#include <vector>

namespace cesm::comp::reference {

/// Fitted uniform cubic B-spline over sample indices 0..n-1.
class CubicBSpline {
 public:
  /// Fit `coeff_count` (>= 4) coefficients to `values` by least squares.
  static CubicBSpline fit(std::span<const float> values, std::size_t coeff_count);

  /// Construct from stored coefficients (decode path).
  CubicBSpline(std::vector<double> coefficients, std::size_t sample_count);

  /// Evaluate the spline at sample index i (0 <= i < sample_count).
  [[nodiscard]] double evaluate(std::size_t i) const;

  [[nodiscard]] const std::vector<double>& coefficients() const { return coeff_; }

 private:
  /// Map sample index to (segment, local parameter u in [0,1)).
  void locate(std::size_t i, std::size_t& segment, double& u) const;

  std::vector<double> coeff_;
  std::size_t n_;
};

/// Solve the SPD banded system A x = b, band[r][d] = A(r, r+d) for
/// d = 0..bandwidth; overwrites `b`. Throws InvalidArgument if A is not
/// positive definite.
void solve_banded_spd(std::vector<std::vector<double>>& band, std::span<double> b,
                      std::size_t bandwidth);

}  // namespace cesm::comp::reference
