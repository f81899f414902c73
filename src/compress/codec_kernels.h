#pragma once
// Hot inner-loop kernels for the four codec families.
//
// There is one implementation (codec_kernels.cpp), written as restructured
// portable C++ that the compiler can keep in vector lanes: row-blocked
// recurrences, a radix sort, branch-free rounding. On x86 each entry point
// is built twice by the compiler (target_clones: an AVX2 clone and a
// base-ISA clone) and the dynamic loader binds the one the CPU supports.
// Both clones compile the same source, so they produce the same bits.
//
// Contract: every kernel is bit-identical to the original per-element codec
// loops, which live on as the test oracle in
// tests/support/codec_kernels_reference.cpp. tests/compress/
// test_codec_kernels.cpp checks each kernel against that oracle across
// hostile fields and every lane-tail length, and CodecPin pins the streams.
//
// The integer kernels (ordered maps, Lorenzo, wavelet lifting) are exact by
// construction. The floating-point kernels (APAX/GRIB2/ISABELA
// quantization) rely on two guarantees the TU keeps: no FMA contraction
// (-ffp-contract=off) and a round-half-away-from-zero formulation that
// matches std::llround for every finite input below 2^52 in magnitude.
// APAX and GRIB2 map non-finite inputs to the value glibc's llround +
// int32 narrowing yields (0); ISABELA hands non-finite and wider lanes to
// std::llround itself.

#include <cstddef>
#include <cstdint>

namespace cesm::comp::kernels {

/// Row-major 3-D geometry for the Lorenzo kernels (rank 1/2 use unit dims).
struct Dims {
  std::size_t planes = 1;
  std::size_t rows = 1;
  std::size_t cols = 1;
};

// ---------------------------------------------------------------------------
// fpzip family: ordered-integer maps and Lorenzo prediction.
// ---------------------------------------------------------------------------

/// q[i] = ordered_map(data[i]) >> shift
void ordered_from_f32(const float* src, std::uint32_t* dst, std::size_t n, unsigned shift);
void ordered_from_f64(const double* src, std::uint64_t* dst, std::size_t n, unsigned shift);

/// data[i] = inverse_map((q[i] << shift) | half)
void f32_from_ordered(const std::uint32_t* q, float* dst, std::size_t n, unsigned shift,
                      std::uint32_t half);
void f64_from_ordered(const std::uint64_t* q, double* dst, std::size_t n, unsigned shift,
                      std::uint64_t half);

/// zz[i] = zigzag(q[i] - lorenzo_predict(q, i)), causal row-major order.
void lorenzo_residuals_u32(const std::uint32_t* q, std::uint32_t* zz, Dims d);
void lorenzo_residuals_u64(const std::uint64_t* q, std::uint64_t* zz, Dims d);

/// Inverse: q[i] = lorenzo_predict(q, i) + unzigzag(zz[i]).
void lorenzo_reconstruct_u32(std::uint32_t* q, const std::uint32_t* zz, Dims d);
void lorenzo_reconstruct_u64(std::uint64_t* q, const std::uint64_t* zz, Dims d);

// ---------------------------------------------------------------------------
// ISABELA, APAX and GRIB2.
// ---------------------------------------------------------------------------

/// ISABELA window sort: perm such that data[perm[i]] ascends, stable in i.
void sort_perm_f32(const float* data, std::uint32_t* perm, std::size_t len);
void sort_perm_f64(const double* data, std::uint32_t* perm, std::size_t len);

/// APAX block-float attenuation: codes[i] = clamp(round(src[i]/scale*q)) + limit,
/// where q = 2^(bits(i)-1) - 1 and the first `extra` samples carry one extra
/// mantissa bit. src has len - first samples starting at src[first].
void apax_quantize(const double* src, std::size_t first, std::size_t len, double scale,
                   unsigned bits, std::size_t extra, std::uint32_t* codes);

/// ISABELA corrections: zz[i] = zigzag(llround((sorted[i] - estimate[i]) / step)),
/// step = eps_frac * max(|estimate[i]|, floor_abs).
void isabela_quantize(const float* sorted, const double* estimate, std::size_t n,
                      double eps_frac, double floor_abs, std::uint64_t* zz);

/// GRIB2 packing: q[i] = valid ? llround((data[i] - lo) / step) : 0.
/// `valid` may be null (every point valid).
void grib2_quantize(const float* data, const std::uint8_t* valid, std::int64_t* q,
                    std::size_t n, double lo, double step);

/// One level of the CDF 5/3 integer lifting (mirror boundaries) over the
/// top-left r_lim x c_lim window of a row-major array with row stride
/// `cols`: along each row, or down each column. Low-pass coefficients land
/// first, high-pass after them.
void dwt53_rows(std::int64_t* data, std::size_t cols, std::size_t r_lim, std::size_t c_lim,
                bool inverse);
void dwt53_cols(std::int64_t* data, std::size_t cols, std::size_t r_lim, std::size_t c_lim,
                bool inverse);

}  // namespace cesm::comp::kernels
