#pragma once
// GRIB2-class codec with a JPEG2000-style second stage.
//
// Mirrors the WMO GRIB2 data representation the paper evaluates:
//   * decimal scale factor D and binary scale factor E quantize the field
//     to integers:  q = round((y - R) * 10^D / 2^E)  with reference value
//     R = field minimum. Quantization is *absolute*-error bounded
//     (0.5 * 2^E / 10^D), the root cause of GRIB2's collapse on
//     huge-range variables like CCN3 in the paper's ensemble tests;
//   * a native missing-value bitmap (the only method in Table 1 with
//     special-value support);
//   * the integer field is then compressed losslessly with a reversible
//     CDF 5/3 wavelet + adaptive coder (the "JPEG2000 compression"
//     option of the GRIB2 standard) — so the format conversion is the
//     only lossy step, exactly as the paper describes;
//   * D must be customized per variable (§5: results were "quite poor"
//     with one global D); choose_decimal_scale() provides the
//     magnitude-based default the paper starts from, and the ensemble
//     tuner in core/ reproduces their RMSZ-guided refinement.

#include <optional>

#include "compress/codec.h"

namespace cesm::comp {

class Grib2Codec final : public Codec {
 public:
  /// `decimal_scale`: D in the GRIB2 sense — the field is kept to about
  /// 10^-D absolute precision. `missing_value`: values exactly equal are
  /// recorded in the bitmap and restored verbatim.
  explicit Grib2Codec(int decimal_scale,
                      std::optional<float> missing_value = std::nullopt);

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::string family() const override { return "GRIB2"; }
  [[nodiscard]] bool is_lossless() const override { return false; }

  [[nodiscard]] Capabilities capabilities() const override {
    return Capabilities{.lossless_mode = false,  // format conversion is lossy
                        .special_values = true,
                        .freely_available = true,
                        .fixed_quality = false,
                        .fixed_rate = false,
                        .handles_64bit = false};
  }

  [[nodiscard]] Bytes encode(std::span<const float> data, const Shape& shape) const override;
  [[nodiscard]] std::vector<float> decode(std::span<const std::uint8_t> stream) const override;

  [[nodiscard]] int decimal_scale() const { return decimal_scale_; }

 private:
  int decimal_scale_;
  std::optional<float> missing_value_;
};

/// Magnitude-based default D for a field spanning [min, max]: keeps about
/// `significant_digits` digits across the range (the paper's starting
/// point before RMSZ-guided tuning).
int choose_decimal_scale(double min_value, double max_value, int significant_digits = 4);

}  // namespace cesm::comp
