#pragma once
// Uniform cubic B-spline least-squares fitting (ISABELA's curve stage).
//
// ISABELA sorts each window so the data become a smooth monotone curve,
// then approximates that curve with a low-order spline. We fit K control
// coefficients of a uniform cubic B-spline over [0, n-1] by ordinary least
// squares; the normal equations are banded (bandwidth 3) and solved with a
// banded Cholesky factorization.

#include <algorithm>
#include <cstddef>
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

/// Fitted uniform cubic B-spline over sample indices 0..n-1.
class CubicBSpline {
 public:
  /// Fit `coeff_count` (>= 4) coefficients to `values` by least squares.
  static CubicBSpline fit(std::span<const float> values, std::size_t coeff_count);

  /// Construct from stored coefficients (decode path).
  CubicBSpline(std::vector<double> coefficients, std::size_t sample_count);

  /// Evaluate the spline at sample index i (0 <= i < sample_count).
  /// Inline so ISABELA's decode loop can evaluate point by point; the
  /// arithmetic is independent of the range decoder's serial chain and
  /// overlaps with it.
  [[nodiscard]] double evaluate(std::size_t i) const {
    std::size_t seg;
    double u, w[4];
    locate(i, seg, u);
    bspline_weights(u, w);
    return w[0] * coeff_[seg] + w[1] * coeff_[seg + 1] + w[2] * coeff_[seg + 2] +
           w[3] * coeff_[seg + 3];
  }

  /// Evaluate at every sample index.
  [[nodiscard]] std::vector<double> evaluate_all() const;

  [[nodiscard]] const std::vector<double>& coefficients() const { return coeff_; }
  [[nodiscard]] std::size_t sample_count() const { return n_; }

 private:
  /// Map sample index to (segment, local parameter u in [0,1)).
  void locate(std::size_t i, std::size_t& segment, double& u) const {
    const std::size_t segments = coeff_.size() - 3;
    const double t = n_ > 1
                         ? static_cast<double>(i) / static_cast<double>(n_ - 1) *
                               static_cast<double>(segments)
                         : 0.0;
    segment = std::min(static_cast<std::size_t>(t), segments - 1);
    u = t - static_cast<double>(segment);
  }

  std::vector<double> coeff_;
  std::size_t n_;
};

/// Solve the symmetric positive-definite banded system A x = b where A is
/// given in banded storage: band[r][d] = A(r, r+d) for d = 0..bandwidth.
/// Overwrites `b` with the solution. Throws InvalidArgument if A is not
/// positive definite.
void solve_banded_spd(std::vector<std::vector<double>>& band, std::span<double> b,
                      std::size_t bandwidth);

}  // namespace cesm::comp
