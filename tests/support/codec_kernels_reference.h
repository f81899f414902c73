#pragma once
// Reference codec kernels: the original per-element loops of the four codec
// families, kept as the test oracle for the production kernels
// (compress/codec_kernels.h), which must match them bit for bit. Also the
// two helpers only these loops use: the Lorenzo predictor and the 1-D 5/3
// lifting with its mirror boundary.
//
// Built into the test binary only, with the project's base flags.

#include <cstddef>
#include <cstdint>
#include <span>

#include "compress/codec_kernels.h"

namespace cesm::comp::reference {

using kernels::Dims;

/// Lorenzo predictor over a row-major array of ordered integers, evaluated
/// causally (only already-decoded neighbours participate). Rank 1 uses the
/// previous sample; rank 2 uses left + up - upleft; rank 3 adds the plane
/// dimension (7-neighbour parallelepiped corner).
///
/// All arithmetic is modular in U: the encoder transmits (value - predict)
/// mod 2^bits and the decoder inverts it exactly, so no overflow handling
/// is needed even for full-width 64-bit data.
///
/// Out-of-array neighbours contribute 0, which predicts the first sample as
/// 0 — harmless, the residual coder absorbs it.
template <typename U>
class LorenzoPredictor {
 public:
  LorenzoPredictor(std::span<const U> values, std::size_t rows, std::size_t cols,
                   std::size_t planes)
      : v_(values), rows_(rows), cols_(cols), planes_(planes) {}

  /// Modular prediction for linear index i (value at i not consulted).
  [[nodiscard]] U predict(std::size_t i) const {
    const std::size_t plane_size = rows_ * cols_;
    const std::size_t p = planes_ > 1 ? i / plane_size : 0;
    const std::size_t rem = planes_ > 1 ? i % plane_size : i;
    const std::size_t r = cols_ > 0 ? rem / cols_ : 0;
    const std::size_t c = cols_ > 0 ? rem % cols_ : 0;

    const auto at = [&](std::size_t pp, std::size_t rr, std::size_t cc) -> U {
      return v_[pp * plane_size + rr * cols_ + cc];
    };

    if (planes_ > 1 && p > 0 && r > 0 && c > 0) {
      // 3-D Lorenzo corner.
      return static_cast<U>(at(p, r, c - 1) + at(p, r - 1, c) + at(p - 1, r, c) -
                            at(p, r - 1, c - 1) - at(p - 1, r, c - 1) -
                            at(p - 1, r - 1, c) + at(p - 1, r - 1, c - 1));
    }
    if (r > 0 && c > 0) {
      return static_cast<U>(at(p, r, c - 1) + at(p, r - 1, c) - at(p, r - 1, c - 1));
    }
    if (c > 0) return at(p, r, c - 1);
    if (r > 0) return at(p, r - 1, c);
    if (p > 0) return at(p - 1, r, c);
    return 0;
  }

 private:
  std::span<const U> v_;
  std::size_t rows_, cols_, planes_;
};

/// One level of forward CDF 5/3 lifting on a signal of length n.
/// Low-pass (s) coefficients land in positions 0..ceil(n/2)-1 and
/// high-pass (d) coefficients in the remaining positions of `out`.
void dwt53_forward_1d(std::span<const std::int64_t> in, std::span<std::int64_t> out);

/// Inverse of dwt53_forward_1d.
void dwt53_inverse_1d(std::span<const std::int64_t> in, std::span<std::int64_t> out);

// The kernels, with the contracts of compress/codec_kernels.h.
void ordered_from_f32(const float* src, std::uint32_t* dst, std::size_t n, unsigned shift);
void ordered_from_f64(const double* src, std::uint64_t* dst, std::size_t n, unsigned shift);
void f32_from_ordered(const std::uint32_t* q, float* dst, std::size_t n, unsigned shift,
                      std::uint32_t half);
void f64_from_ordered(const std::uint64_t* q, double* dst, std::size_t n, unsigned shift,
                      std::uint64_t half);
void lorenzo_residuals_u32(const std::uint32_t* q, std::uint32_t* zz, Dims d);
void lorenzo_residuals_u64(const std::uint64_t* q, std::uint64_t* zz, Dims d);
void lorenzo_reconstruct_u32(std::uint32_t* q, const std::uint32_t* zz, Dims d);
void lorenzo_reconstruct_u64(std::uint64_t* q, const std::uint64_t* zz, Dims d);
void sort_perm_f32(const float* data, std::uint32_t* perm, std::size_t len);
void sort_perm_f64(const double* data, std::uint32_t* perm, std::size_t len);
void apax_quantize(const double* src, std::size_t first, std::size_t len, double scale,
                   unsigned bits, std::size_t extra, std::uint32_t* codes);
void isabela_quantize(const float* sorted, const double* estimate, std::size_t n,
                      double eps_frac, double floor_abs, std::uint64_t* zz);
void grib2_quantize(const float* data, const std::uint8_t* valid, std::int64_t* q,
                    std::size_t n, double lo, double step);
void dwt53_rows(std::int64_t* data, std::size_t cols, std::size_t r_lim, std::size_t c_lim,
                bool inverse);
void dwt53_cols(std::int64_t* data, std::size_t cols, std::size_t r_lim, std::size_t c_lim,
                bool inverse);

}  // namespace cesm::comp::reference
