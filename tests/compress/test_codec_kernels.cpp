// Production codec kernels (codec_kernels.h) against the reference loops
// (support/codec_kernels_reference.h).
//
// The production kernels are only admissible if they are bit-identical to
// the reference on EVERY input, so each kernel is checked across hostile
// field regimes (subnormals, NaN/inf salting, fill-masked points) and
// across a dense sweep of buffer lengths covering every lane-tail
// remainder: for the widest lane width w in play (8 for f32 AVX2), the
// sweep hits every n mod w in {0..w-1} twice, plus the degenerate tiny
// lengths below one full lane. Stream identity is pinned by CodecPin
// (test_codec_pin.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "compress/codec_kernels.h"
#include "compress/fpz/predictor.h"
#include "support/codec_kernels_reference.h"
#include "support/generators.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

namespace k = kernels;
namespace ref = reference;

// Lengths exercising every tail remainder for lane widths up to 16, plus
// sub-lane degenerate sizes.
std::vector<std::size_t> tail_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 17; ++n) lens.push_back(n);
  for (std::size_t n = 1013; n <= 1040; ++n) lens.push_back(n);
  return lens;
}

enum class Field { kSmooth, kDenormal, kSpecials, kFilled };

const char* field_name(Field f) {
  switch (f) {
    case Field::kSmooth: return "smooth";
    case Field::kDenormal: return "denormal";
    case Field::kSpecials: return "specials";
    case Field::kFilled: return "filled";
  }
  return "?";
}

std::vector<float> make_field(Field f, std::size_t n, std::uint64_t seed) {
  std::vector<float> data;
  switch (f) {
    case Field::kSmooth:
      data = testgen::smooth_field(n, seed);
      break;
    case Field::kDenormal:
      data = testgen::denormal_field(n, seed);
      break;
    case Field::kSpecials:
      data = testgen::smooth_field(n, seed);
      testgen::salt_specials(data, seed + 1, 0.05);
      break;
    case Field::kFilled:
      data = testgen::smooth_field(n, seed);
      testgen::apply_fill(data, testgen::fill_mask(n, seed + 2), 9.96921e36f);
      break;
  }
  return data;
}

std::vector<double> widen(const std::vector<float>& f) {
  std::vector<double> d(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) d[i] = static_cast<double>(f[i]);
  return d;
}

// memcmp is declared nonnull, and an empty vector's data() may be null —
// the n=0 sweep entries need a guard to stay UBSan-clean.
template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  if (a.size() != b.size()) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

constexpr Field kAllFields[] = {Field::kSmooth, Field::kDenormal, Field::kSpecials,
                                Field::kFilled};

TEST(CodecKernels, OrderedMapFloat) {
  for (Field f : kAllFields) {
    for (std::size_t n : tail_lengths()) {
      SCOPED_TRACE(std::string(field_name(f)) + " n=" + std::to_string(n));
      const std::vector<float> data = make_field(f, n, 0xA1);
      for (unsigned shift : {0u, 8u, 15u}) {
        std::vector<std::uint32_t> qs(n), qv(n);
        ref::ordered_from_f32(data.data(), qs.data(), n, shift);
        k::ordered_from_f32(data.data(), qv.data(), n, shift);
        ASSERT_TRUE(same_bytes(qs, qv)) << "shift=" << shift;

        const std::uint32_t half = shift == 0 ? 0 : (1u << (shift - 1));
        std::vector<float> rs(n), rv(n);
        ref::f32_from_ordered(qs.data(), rs.data(), n, shift, half);
        k::f32_from_ordered(qs.data(), rv.data(), n, shift, half);
        ASSERT_TRUE(same_bytes(rs, rv)) << "shift=" << shift;
      }
    }
  }
}

TEST(CodecKernels, OrderedMapDouble) {
  for (Field f : kAllFields) {
    for (std::size_t n : tail_lengths()) {
      SCOPED_TRACE(std::string(field_name(f)) + " n=" + std::to_string(n));
      const std::vector<double> data = widen(make_field(f, n, 0xA2));
      for (unsigned shift : {0u, 12u}) {
        std::vector<std::uint64_t> qs(n), qv(n);
        ref::ordered_from_f64(data.data(), qs.data(), n, shift);
        k::ordered_from_f64(data.data(), qv.data(), n, shift);
        ASSERT_TRUE(same_bytes(qs, qv));

        const std::uint64_t half = shift == 0 ? 0 : (1ull << (shift - 1));
        std::vector<double> rs(n), rv(n);
        ref::f64_from_ordered(qs.data(), rs.data(), n, shift, half);
        k::f64_from_ordered(qs.data(), rv.data(), n, shift, half);
        ASSERT_TRUE(same_bytes(rs, rv));
      }
    }
  }
}

// Shapes covering 1D tails, 2D with odd/even row widths, and 3D with every
// plane/row/col remainder class the row-blocked kernels branch on.
const k::Dims kLorenzoShapes[] = {
    {1, 1, 1},  {1, 1, 7},  {1, 1, 8},   {1, 1, 9},   {1, 1, 1021},
    {1, 2, 3},  {1, 7, 13}, {1, 16, 16}, {1, 31, 33}, {1, 5, 1024},
    {2, 3, 5},  {3, 7, 11}, {4, 8, 8},   {5, 9, 17},  {2, 16, 129},
};

TEST(CodecKernels, LorenzoResidualsAndReconstruct32) {
  for (Field f : {Field::kSmooth, Field::kDenormal, Field::kSpecials}) {
    for (const k::Dims& d : kLorenzoShapes) {
      const std::size_t n = d.planes * d.rows * d.cols;
      SCOPED_TRACE(std::string(field_name(f)) + " dims=" + std::to_string(d.planes) +
                   "x" + std::to_string(d.rows) + "x" + std::to_string(d.cols));
      const std::vector<float> data = make_field(f, n, 0xA3);
      std::vector<std::uint32_t> q(n);
      ref::ordered_from_f32(data.data(), q.data(), n, 4);

      std::vector<std::uint32_t> zs(n), zv(n);
      ref::lorenzo_residuals_u32(q.data(), zs.data(), d);
      k::lorenzo_residuals_u32(q.data(), zv.data(), d);
      ASSERT_TRUE(same_bytes(zs, zv));

      // Cross-check against the predictor directly: the residual must be
      // the zigzagged difference from LorenzoPredictor at every site.
      const ref::LorenzoPredictor<std::uint32_t> pred(q, d.rows, d.cols, d.planes);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(zs[i], zigzag_encode(static_cast<std::uint32_t>(q[i] - pred.predict(i))))
            << "i=" << i;
      }

      std::vector<std::uint32_t> rs(n), rv(n);
      ref::lorenzo_reconstruct_u32(rs.data(), zs.data(), d);
      k::lorenzo_reconstruct_u32(rv.data(), zs.data(), d);
      ASSERT_TRUE(same_bytes(rs, rv));
      ASSERT_TRUE(same_bytes(rs, q)) << "reconstruct must invert residuals";
    }
  }
}

TEST(CodecKernels, LorenzoResidualsAndReconstruct64) {
  for (const k::Dims& d : kLorenzoShapes) {
    const std::size_t n = d.planes * d.rows * d.cols;
    SCOPED_TRACE("dims=" + std::to_string(d.planes) + "x" + std::to_string(d.rows) +
                 "x" + std::to_string(d.cols));
    const std::vector<double> data = widen(make_field(Field::kSpecials, n, 0xA4));
    std::vector<std::uint64_t> q(n);
    ref::ordered_from_f64(data.data(), q.data(), n, 4);

    std::vector<std::uint64_t> zs(n), zv(n);
    ref::lorenzo_residuals_u64(q.data(), zs.data(), d);
    k::lorenzo_residuals_u64(q.data(), zv.data(), d);
    ASSERT_TRUE(same_bytes(zs, zv));

    std::vector<std::uint64_t> rs(n), rv(n);
    ref::lorenzo_reconstruct_u64(rs.data(), zs.data(), d);
    k::lorenzo_reconstruct_u64(rv.data(), zs.data(), d);
    ASSERT_TRUE(same_bytes(rs, rv));
    ASSERT_TRUE(same_bytes(rs, q));
  }
}

TEST(CodecKernels, SortPermutation) {
  for (Field f : kAllFields) {
    for (std::size_t n : tail_lengths()) {
      SCOPED_TRACE(std::string(field_name(f)) + " n=" + std::to_string(n));
      std::vector<float> data = make_field(f, n, 0xA5);
      // Duplicates and signed zeros stress the stability contract.
      if (n >= 8) {
        data[1] = data[0];
        data[n / 2] = 0.0f;
        data[n / 2 + 1] = -0.0f;
        data[n - 1] = data[0];
      }
      std::vector<std::uint32_t> ps(n), pv(n);
      ref::sort_perm_f32(data.data(), ps.data(), n);
      k::sort_perm_f32(data.data(), pv.data(), n);
      ASSERT_TRUE(same_bytes(ps, pv));

      const std::vector<double> wide = widen(data);
      std::vector<std::uint32_t> ds(n), dv(n);
      ref::sort_perm_f64(wide.data(), ds.data(), n);
      k::sort_perm_f64(wide.data(), dv.data(), n);
      ASSERT_TRUE(same_bytes(ds, dv));
    }
  }
}

TEST(CodecKernels, ApaxQuantize) {
  for (Field f : kAllFields) {
    for (std::size_t n : tail_lengths()) {
      if (n == 0) continue;
      SCOPED_TRACE(std::string(field_name(f)) + " n=" + std::to_string(n));
      const std::vector<double> src = widen(make_field(f, n, 0xA6));
      double scale = 0.0;
      for (double v : src) {
        if (std::isfinite(v)) scale = std::max(scale, std::fabs(v));
      }
      if (scale == 0.0) scale = 1.0;
      for (unsigned bits : {2u, 7u, 16u}) {
        // `extra` sweeps the split between (bits+1)- and bits-wide samples;
        // `first` = 1 is derivative mode, whose first sample is the seed.
        for (std::size_t extra : {std::size_t{0}, n / 3, n}) {
          for (std::size_t first : {std::size_t{0}, std::size_t{1}}) {
            std::vector<std::uint32_t> cs(n - first), cv(n - first);
            ref::apax_quantize(src.data(), first, n, scale, bits, extra, cs.data());
            k::apax_quantize(src.data(), first, n, scale, bits, extra, cv.data());
            ASSERT_TRUE(same_bytes(cs, cv))
                << "bits=" << bits << " extra=" << extra << " first=" << first;
          }
        }
      }
    }
  }
}

TEST(CodecKernels, IsabelaQuantize) {
  // Field regimes against a smooth stand-in estimate, with the codec's
  // floor rule and the three paper error bounds.
  for (Field f : kAllFields) {
    for (std::size_t n : tail_lengths()) {
      SCOPED_TRACE(std::string(field_name(f)) + " n=" + std::to_string(n));
      const std::vector<float> sorted = make_field(f, n, 0xAA);
      std::vector<double> estimate(n);
      double max_abs = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        estimate[i] = static_cast<double>(sorted[i]) * (1.0 + 0.003 * std::sin(0.37 * i));
        if (std::isfinite(sorted[i])) max_abs = std::max(max_abs, std::fabs(estimate[i]));
      }
      const double floor_abs = std::max(1e-7 * max_abs, 1e-300);
      for (double eps : {0.001, 0.005, 0.01}) {
        std::vector<std::uint64_t> zs(n), zv(n);
        ref::isabela_quantize(sorted.data(), estimate.data(), n, eps, floor_abs, zs.data());
        k::isabela_quantize(sorted.data(), estimate.data(), n, eps, floor_abs, zv.data());
        ASSERT_TRUE(same_bytes(zs, zv)) << "eps=" << eps;
      }
    }
  }
}

TEST(CodecKernels, IsabelaQuantizeEdgeQuotients) {
  // With eps_frac * floor_abs == 1 and |estimate| below the floor the step
  // is exactly 1, so the quotient is sorted - estimate: exact half-way
  // ties, both sides of 2^52 (where the kernel hands lanes to llround),
  // NaN and infinities. Then subnormal estimates under the codec's smallest
  // floor, whose quotients leave the exact range.
  constexpr double k52 = 0x1p52;
  const std::vector<double> quotients = {
      0.5,       -0.5,      1.5,       -1.5,      2.5,       -2.5,     0.49999999999999994,
      -0.49999999999999994, 8388607.5, -8388607.5, k52 - 1.0, -(k52 - 1.0), k52 - 0.5,
      -(k52 - 0.5), k52,   -k52,      k52 + 1.0, -(k52 + 1.0), 0x1p62, -0x1p62, 0x1p63,
      -0x1p63,   1e300,     -1e300,    std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity(),
      0.0,       -0.0};
  const double floor_abs = 0x1p60, eps = 0x1p-60;
  std::vector<float> sorted;
  std::vector<double> estimate;
  for (double q : quotients) {
    // sorted - estimate == q: an exact float on one side, the rest (or the
    // special) in the estimate.
    sorted.push_back(0.0f);
    estimate.push_back(-q);
    sorted.push_back(static_cast<float>(q));
    estimate.push_back(0.0);
  }
  sorted.push_back(std::numeric_limits<float>::quiet_NaN());
  estimate.push_back(1.0);
  sorted.push_back(1.0f);
  estimate.push_back(std::numeric_limits<double>::quiet_NaN());
  sorted.push_back(std::numeric_limits<float>::infinity());
  estimate.push_back(std::numeric_limits<double>::infinity());
  {
    const std::size_t n = sorted.size();
    std::vector<std::uint64_t> zs(n), zv(n);
    ref::isabela_quantize(sorted.data(), estimate.data(), n, eps, floor_abs, zs.data());
    k::isabela_quantize(sorted.data(), estimate.data(), n, eps, floor_abs, zv.data());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(zs[i], zv[i]) << "i=" << i << " sorted=" << sorted[i]
                              << " estimate=" << estimate[i];
    }
  }
  // Subnormal estimates: tiny steps, quotients far past 2^52 and some still
  // exact (sorted == estimate rounds to the same float).
  sorted.clear();
  estimate.clear();
  for (double e : {4.9e-324, -4.9e-324, 1e-310, -1e-310, 2.2e-308, 0.0}) {
    for (float s : {0.0f, 1e-45f, -1e-45f, 1e-38f, 1.0f}) {
      sorted.push_back(s);
      estimate.push_back(e);
    }
  }
  const std::size_t n = sorted.size();
  for (double floor : {1e-300, 4.9e-324}) {
    std::vector<std::uint64_t> zs(n), zv(n);
    ref::isabela_quantize(sorted.data(), estimate.data(), n, 0.001, floor, zs.data());
    k::isabela_quantize(sorted.data(), estimate.data(), n, 0.001, floor, zv.data());
    ASSERT_TRUE(same_bytes(zs, zv)) << "floor=" << floor;
  }
}

TEST(CodecKernels, Grib2Quantize) {
  for (Field f : kAllFields) {
    for (std::size_t n : tail_lengths()) {
      if (n == 0) continue;
      SCOPED_TRACE(std::string(field_name(f)) + " n=" + std::to_string(n));
      const std::vector<float> data = make_field(f, n, 0xA7);
      const std::vector<std::uint8_t> mask = testgen::fill_mask(n, 0xA8);
      for (const std::uint8_t* valid : {static_cast<const std::uint8_t*>(nullptr),
                                        mask.data()}) {
        std::vector<std::int64_t> qs(n), qv(n);
        ref::grib2_quantize(data.data(), valid, qs.data(), n, -41.75, 0.03125);
        k::grib2_quantize(data.data(), valid, qv.data(), n, -41.75, 0.03125);
        ASSERT_TRUE(same_bytes(qs, qv)) << (valid ? "masked" : "unmasked");
      }
    }
  }
}

TEST(CodecKernels, Dwt53RowsAndCols) {
  Pcg32 rng(0xA9);
  // Row/column limits hitting odd/even splits and every blocked-column
  // remainder; `cols` (the stride) can exceed c_lim as in multi-level DWT.
  const struct { std::size_t rows, cols, r_lim, c_lim; } shapes[] = {
      {1, 8, 1, 8},    {2, 9, 2, 9},     {3, 8, 3, 5},    {8, 8, 8, 8},
      {9, 16, 9, 13},  {16, 17, 11, 17}, {31, 33, 31, 33}, {33, 40, 17, 21},
      {64, 65, 64, 65},
  };
  for (const auto& s : shapes) {
    SCOPED_TRACE("r_lim=" + std::to_string(s.r_lim) + " c_lim=" + std::to_string(s.c_lim));
    std::vector<std::int64_t> base(s.rows * s.cols);
    for (auto& v : base) {
      v = static_cast<std::int64_t>(rng.next_u32()) - (1ll << 31);
    }
    for (const bool inverse : {false, true}) {
      std::vector<std::int64_t> a = base, b = base;
      ref::dwt53_rows(a.data(), s.cols, s.r_lim, s.c_lim, inverse);
      k::dwt53_rows(b.data(), s.cols, s.r_lim, s.c_lim, inverse);
      ASSERT_EQ(a, b) << "rows inverse=" << inverse;

      a = base;
      b = base;
      ref::dwt53_cols(a.data(), s.cols, s.r_lim, s.c_lim, inverse);
      k::dwt53_cols(b.data(), s.cols, s.r_lim, s.c_lim, inverse);
      ASSERT_EQ(a, b) << "cols inverse=" << inverse;
    }
  }
}

}  // namespace
}  // namespace cesm::comp
