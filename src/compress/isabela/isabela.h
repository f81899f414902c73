#pragma once
// ISABELA-class codec (Lakshminarasimhan et al., Euro-Par'11).
//
// Pipeline, faithful to the published design:
//   1. partition the stream into fixed windows (paper-recommended 1024);
//   2. sort each window ascending — sorting preconditions noisy data into
//      a smooth monotone curve;
//   3. approximate the sorted curve with a cubic B-spline (few dozen
//      coefficients per window);
//   4. store the sort permutation (the dominant cost at single precision,
//      which is why the paper's ISA variants have such similar CRs);
//   5. guarantee a per-point *relative* error by storing quantized
//      corrections against the spline.
//
// Windows decode independently, preserving ISABELA's random-access pitch.
// The fit and the estimates run on a SplineBasis (bspline.h) per window
// shape: full windows share the codec shape's one process-wide basis, and
// a window of any other shape (a short tail, or a stream written with
// other parameters) gets a basis of its own for that call.

#include "compress/codec.h"

namespace cesm::comp {

class IsabelaCodec final : public Codec {
 public:
  /// `rel_error_percent`: per-point relative error bound in percent (the
  /// paper runs 1.0, 0.5 and 0.1). `window`: sort window (default 1024).
  /// `coefficients`: B-spline coefficients per full window.
  explicit IsabelaCodec(double rel_error_percent, std::size_t window = 1024,
                        std::size_t coefficients = 32);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string family() const override { return "ISABELA"; }
  [[nodiscard]] bool is_lossless() const override { return false; }

  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.lossless_mode = false,
                        .special_values = false,
                        .freely_available = true,
                        .fixed_quality = false,
                        .fixed_rate = false,
                        .handles_64bit = true};
  }

  [[nodiscard]] Bytes encode(std::span<const float> data, const Shape& shape) const override;
  [[nodiscard]] std::vector<float> decode(std::span<const std::uint8_t> stream) const override;
  [[nodiscard]] Bytes encode64(std::span<const double> data, const Shape& shape) const override;
  [[nodiscard]] std::vector<double> decode64(
      std::span<const std::uint8_t> stream) const override;

  /// Prep plan: per window the sorted values, spline fit, floor and the
  /// finished window head with the packed sort permutation, shared by
  /// every error-bound variant with the same window/coefficient
  /// parameters (the bound only enters the correction coding; see
  /// codec.h). encode() and encode64() run the same window prep.
  [[nodiscard]] std::string prep_key() const override;
  [[nodiscard]] PrepPlanPtr build_prep(std::span<const float> data,
                                       const Shape& shape) const override;
  [[nodiscard]] Bytes encode_with_prep(const PrepPlan& plan, std::span<const float> data,
                                       const Shape& shape) const override;

  [[nodiscard]] double rel_error_percent() const { return rel_error_percent_; }
  [[nodiscard]] std::size_t window() const { return window_; }

 private:
  double rel_error_percent_;
  std::size_t window_;
  std::size_t coefficients_;
};

}  // namespace cesm::comp
