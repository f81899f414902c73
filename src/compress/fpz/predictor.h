#pragma once
// Floating-point ordered-integer mapping and the zig-zag residual fold
// used by the fpzip-class codec (the Lorenzo prediction itself is a codec
// kernel, codec_kernels.h).
//
// The float -> unsigned map is order-preserving: compare as unsigned ==
// compare as float (NaNs excluded by the climate substrate). Prediction and
// residuals then live in integer space where truncation gives the paper's
// "bits of precision" semantics exactly.

#include <bit>
#include <cstdint>
#include <type_traits>

namespace cesm::comp {

/// Order-preserving map IEEE-754 binary32 -> uint32.
inline std::uint32_t float_to_ordered(float f) {
  const auto b = std::bit_cast<std::uint32_t>(f);
  return (b & 0x80000000u) ? ~b : (b | 0x80000000u);
}

inline float ordered_to_float(std::uint32_t u) {
  const std::uint32_t b = (u & 0x80000000u) ? (u & 0x7fffffffu) : ~u;
  return std::bit_cast<float>(b);
}

/// Order-preserving map IEEE-754 binary64 -> uint64.
inline std::uint64_t double_to_ordered(double d) {
  const auto b = std::bit_cast<std::uint64_t>(d);
  return (b & 0x8000000000000000ull) ? ~b : (b | 0x8000000000000000ull);
}

inline double ordered_to_double(std::uint64_t u) {
  const std::uint64_t b = (u & 0x8000000000000000ull) ? (u & 0x7fffffffffffffffull) : ~u;
  return std::bit_cast<double>(b);
}

/// Zig-zag fold of a modular difference into an unsigned magnitude code:
/// the difference is interpreted as two's-complement signed so that small
/// prediction errors of either sign yield small codes.
template <typename U>
U zigzag_encode(U diff) {
  using S = std::make_signed_t<U>;
  const S s = static_cast<S>(diff);
  return static_cast<U>((static_cast<U>(s) << 1) ^ static_cast<U>(s >> (sizeof(U) * 8 - 1)));
}

template <typename U>
U zigzag_decode(U z) {
  return static_cast<U>((z >> 1) ^ (~(z & 1) + 1));
}

}  // namespace cesm::comp
