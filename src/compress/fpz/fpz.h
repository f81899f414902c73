#pragma once
// fpzip-class predictive floating-point codec.
//
// Faithful to the published fpzip design axes the paper exercises:
//   * lossless mode plus lossy modes keeping a multiple-of-8 number of
//     bits of precision (fpzip-16 / fpzip-24 / fpzip-32 in the tables);
//   * prediction (Lorenzo) on an order-preserving integer mapping of the
//     floats, residuals entropy-coded (adaptive range coder here);
//   * bounded *relative* error behaviour: truncation operates on the
//     floating-point representation, so the absolute error scales with
//     the magnitude of each value;
//   * 32- and 64-bit inputs.

#include "compress/codec.h"

namespace cesm::comp {

class FpzCodec final : public Codec {
 public:
  /// `precision_bits` must be 8, 16, 24 or 32 for floats (32 = lossless);
  /// up to 64 in steps of 8 for doubles (64 = lossless).
  explicit FpzCodec(unsigned precision_bits);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string family() const override { return "fpzip"; }
  [[nodiscard]] bool is_lossless() const override { return precision_bits_ >= 32; }

  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.lossless_mode = true,
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

  [[nodiscard]] unsigned precision_bits() const { return precision_bits_; }

 private:
  unsigned precision_bits_;
};

}  // namespace cesm::comp
