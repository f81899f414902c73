#pragma once
// Reversible integer wavelet transform (CDF 5/3, the lossless JPEG2000
// filter), used as the "JPEG2000 stage" behind the GRIB2 quantizer.
//
// The lifting scheme operates on integers and is exactly invertible, so
// all loss in the GRIB2 codec comes from the decimal-scale quantization —
// matching the paper's observation that the GRIB2 *format conversion*
// itself is the lossy step.

#include <cstdint>
#include <span>
#include <vector>

namespace cesm::comp {

/// Multi-level separable 2-D forward transform in place (row-major
/// rows x cols). `levels` halvings are applied to the low-pass quadrant;
/// the transform stops early once a side drops below 8 samples.
/// Returns the number of levels actually applied.
unsigned dwt53_forward_2d(std::span<std::int64_t> data, std::size_t rows, std::size_t cols,
                          unsigned levels);

/// Inverse multi-level 2-D transform; `levels` must be the value returned
/// by the forward call.
void dwt53_inverse_2d(std::span<std::int64_t> data, std::size_t rows, std::size_t cols,
                      unsigned levels);

}  // namespace cesm::comp
