// Codec kernels (codec_kernels.h): restructured portable C++ the compiler
// can keep in vector lanes — no intrinsics, so the TU is correct on any
// architecture.
//
// On x86 ELF targets every entry point carries target_clones: the compiler
// emits an AVX2 clone and a base-ISA clone of the same source, and an ifunc
// resolver picks one from the CPU when the library is loaded. Helpers are
// forced inline so each clone compiles them for its own ISA. Other targets,
// and ThreadSanitizer builds, get one base-flag build. simd::active_mode() (simd.h) lives here too, so
// the one condition that picks clones also picks what it reports.

#include "compress/codec_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "compress/fpz/predictor.h"
#include "compress/simd.h"

// ThreadSanitizer instruments the ifunc resolver, which the loader runs
// before the TSan runtime is up: with GCC 12 a program of one cloned
// function already crashes at load. TSan builds therefore get the single
// base-ISA build.
#if defined(__SANITIZE_THREAD__)
#define CESM_KERNEL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define CESM_KERNEL_TSAN 1
#endif
#endif

#if defined(__ELF__) && (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__)) && !defined(CESM_KERNEL_TSAN)
#define CESM_KERNEL_CLONES 1
#define CESM_KERNEL __attribute__((target_clones("avx2", "default")))
#else
#define CESM_KERNEL_CLONES 0
#define CESM_KERNEL
#endif
#define CESM_KERNEL_HELPER [[gnu::always_inline]] inline

namespace cesm::comp {

namespace simd {

Mode active_mode() {
#if CESM_KERNEL_CLONES
  // The same test the target_clones resolver applies.
  return __builtin_cpu_supports("avx2") ? Mode::kSimd : Mode::kScalar;
#else
  return Mode::kScalar;
#endif
}

const char* mode_name(Mode mode) { return mode == Mode::kScalar ? "scalar" : "simd"; }

}  // namespace simd

namespace kernels {

// ---------------------------------------------------------------------------
// Ordered-integer maps: branch-free xor formulation of predictor.h's
// sign-conditional maps (identical bit results, vectorizes to cmp/xor).
// ---------------------------------------------------------------------------

CESM_KERNEL void ordered_from_f32(const float* src, std::uint32_t* dst, std::size_t n,
                                  unsigned shift) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t b;
    std::memcpy(&b, &src[i], sizeof b);
    // sign set: ~b == b ^ 0xffffffff; sign clear: b | 0x8000... == b ^ 0x8000...
    const std::uint32_t m =
        static_cast<std::uint32_t>(static_cast<std::int32_t>(b) >> 31) | 0x80000000u;
    dst[i] = (b ^ m) >> shift;
  }
}

CESM_KERNEL void ordered_from_f64(const double* src, std::uint64_t* dst, std::size_t n,
                                  unsigned shift) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t b;
    std::memcpy(&b, &src[i], sizeof b);
    const std::uint64_t m =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(b) >> 63) |
        0x8000000000000000ull;
    dst[i] = (b ^ m) >> shift;
  }
}

CESM_KERNEL void f32_from_ordered(const std::uint32_t* q, float* dst, std::size_t n,
                                  unsigned shift, std::uint32_t half) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t u = (q[i] << shift) | half;
    // sign set: clear it (u ^ 0x8000...); sign clear: ~u (u ^ 0xffffffff).
    const std::uint32_t m =
        ~static_cast<std::uint32_t>(static_cast<std::int32_t>(u) >> 31) | 0x80000000u;
    const std::uint32_t b = u ^ m;
    std::memcpy(&dst[i], &b, sizeof b);
  }
}

CESM_KERNEL void f64_from_ordered(const std::uint64_t* q, double* dst, std::size_t n,
                                  unsigned shift, std::uint64_t half) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t u = (q[i] << shift) | half;
    const std::uint64_t m =
        ~static_cast<std::uint64_t>(static_cast<std::int64_t>(u) >> 63) |
        0x8000000000000000ull;
    const std::uint64_t b = u ^ m;
    std::memcpy(&dst[i], &b, sizeof b);
  }
}

// ---------------------------------------------------------------------------
// Lorenzo prediction, row-blocked: instead of a per-element div/mod index
// decomposition, one loop nest per boundary case, so interior rows are
// straight-line neighbor arithmetic over contiguous lanes. All arithmetic
// is modular in U.
// ---------------------------------------------------------------------------

namespace {

template <typename U>
CESM_KERNEL_HELPER void lorenzo_residuals_impl(const U* q, U* zz, Dims d) {
  const std::size_t rows = d.rows, cols = d.cols, planes = d.planes;
  const std::size_t plane_size = rows * cols;
  for (std::size_t p = 0; p < planes; ++p) {
    const U* cp = q + p * plane_size;   // current plane
    const U* pp = cp - plane_size;      // previous plane (p > 0 only)
    U* z = zz + p * plane_size;
    // Row 0: first element predicts from the previous plane (or 0), the
    // rest from the left neighbor.
    z[0] = zigzag_encode(static_cast<U>(p > 0 ? cp[0] - pp[0] : cp[0]));
    for (std::size_t c = 1; c < cols; ++c) {
      z[c] = zigzag_encode(static_cast<U>(cp[c] - cp[c - 1]));
    }
    for (std::size_t r = 1; r < rows; ++r) {
      const U* cur = cp + r * cols;
      const U* up = cur - cols;
      U* zr = z + r * cols;
      zr[0] = zigzag_encode(static_cast<U>(cur[0] - up[0]));
      if (p == 0) {
        // 2-D Lorenzo: value - (left + up - upleft).
        for (std::size_t c = 1; c < cols; ++c) {
          zr[c] = zigzag_encode(
              static_cast<U>(cur[c] - cur[c - 1] - up[c] + up[c - 1]));
        }
      } else {
        // 3-D Lorenzo 7-neighbour corner.
        const U* bk = cur - plane_size;  // (p-1, r, .)
        const U* bu = bk - cols;         // (p-1, r-1, .)
        for (std::size_t c = 1; c < cols; ++c) {
          zr[c] = zigzag_encode(static_cast<U>(cur[c] - cur[c - 1] - up[c] +
                                               up[c - 1] - bk[c] + bk[c - 1] +
                                               bu[c] - bu[c - 1]));
        }
      }
    }
  }
}

/// Inverse. Row interiors collapse to a running prefix sum: with
/// e[c] = q[r][c] - q[r-1][c] the 2-D recurrence is e[c] = e[c-1] + dz[c],
/// and in 3-D the plane difference h = q[p] - q[p-1] obeys the 2-D
/// recurrence, so g[c] = h[r][c] - h[r-1][c] is again a prefix sum.
template <typename U>
CESM_KERNEL_HELPER void lorenzo_reconstruct_impl(U* q, const U* zz, Dims d) {
  const std::size_t rows = d.rows, cols = d.cols, planes = d.planes;
  const std::size_t plane_size = rows * cols;
  std::vector<U> hprev(planes > 1 ? cols : 0);
  for (std::size_t p = 0; p < planes; ++p) {
    U* cp = q + p * plane_size;
    const U* pp = cp - plane_size;
    const U* z = zz + p * plane_size;
    cp[0] = static_cast<U>((p > 0 ? pp[0] : U{0}) + zigzag_decode(z[0]));
    for (std::size_t c = 1; c < cols; ++c) {
      cp[c] = static_cast<U>(cp[c - 1] + zigzag_decode(z[c]));
    }
    if (p > 0) {
      for (std::size_t c = 0; c < cols; ++c) hprev[c] = static_cast<U>(cp[c] - pp[c]);
    }
    for (std::size_t r = 1; r < rows; ++r) {
      U* cur = cp + r * cols;
      const U* up = cur - cols;
      const U* zr = z + r * cols;
      cur[0] = static_cast<U>(up[0] + zigzag_decode(zr[0]));
      if (p == 0) {
        U e = static_cast<U>(cur[0] - up[0]);
        for (std::size_t c = 1; c < cols; ++c) {
          e = static_cast<U>(e + zigzag_decode(zr[c]));
          cur[c] = static_cast<U>(up[c] + e);
        }
      } else {
        const U* prev = pp + r * cols;
        U h0 = static_cast<U>(cur[0] - prev[0]);
        U g = static_cast<U>(h0 - hprev[0]);
        hprev[0] = h0;
        for (std::size_t c = 1; c < cols; ++c) {
          g = static_cast<U>(g + zigzag_decode(zr[c]));
          const U h = static_cast<U>(hprev[c] + g);
          hprev[c] = h;
          cur[c] = static_cast<U>(prev[c] + h);
        }
      }
    }
  }
}

}  // namespace

CESM_KERNEL void lorenzo_residuals_u32(const std::uint32_t* q, std::uint32_t* zz, Dims d) {
  lorenzo_residuals_impl(q, zz, d);
}
CESM_KERNEL void lorenzo_residuals_u64(const std::uint64_t* q, std::uint64_t* zz, Dims d) {
  lorenzo_residuals_impl(q, zz, d);
}
CESM_KERNEL void lorenzo_reconstruct_u32(std::uint32_t* q, const std::uint32_t* zz, Dims d) {
  lorenzo_reconstruct_impl(q, zz, d);
}
CESM_KERNEL void lorenzo_reconstruct_u64(std::uint64_t* q, const std::uint64_t* zz, Dims d) {
  lorenzo_reconstruct_impl(q, zz, d);
}

// ---------------------------------------------------------------------------
// ISABELA window sort: LSD radix over order-preserving keys. Equivalent to
// stable_sort by value because the key map is strictly monotone on non-NaN
// floats (with -0.0 canonicalized onto +0.0, matching operator< which treats
// them as equal) and LSD radix is stable, so ties keep input-index order.
// NaN does not admit a strict weak order under operator<, so windows
// containing NaN take std::stable_sort, whose outcome on them is the
// historical one; so do tiny windows, where radix setup costs more than it
// saves.
// ---------------------------------------------------------------------------

namespace {

CESM_KERNEL_HELPER std::uint32_t radix_key(float v) { return float_to_ordered(v == 0.0f ? 0.0f : v); }
CESM_KERNEL_HELPER std::uint64_t radix_key(double v) { return double_to_ordered(v == 0.0 ? 0.0 : v); }

template <typename T>
CESM_KERNEL_HELPER void sort_perm_impl(const T* data, std::uint32_t* perm, std::size_t len) {
  bool has_nan = false;
  for (std::size_t i = 0; i < len; ++i) has_nan |= (data[i] != data[i]);
  if (has_nan || len <= 64) {
    std::iota(perm, perm + len, 0u);
    std::stable_sort(perm, perm + len,
                     [&](std::uint32_t a, std::uint32_t b) { return data[a] < data[b]; });
    return;
  }

  using K = decltype(radix_key(T{}));
  std::vector<K> keys(len), keys_tmp(len);
  std::vector<std::uint32_t> idx(len), idx_tmp(len);
  for (std::size_t i = 0; i < len; ++i) {
    keys[i] = radix_key(data[i]);
    idx[i] = static_cast<std::uint32_t>(i);
  }

  constexpr unsigned kPasses = sizeof(K);
  for (unsigned pass = 0; pass < kPasses; ++pass) {
    const unsigned shift = pass * 8;
    std::size_t count[256] = {};
    for (std::size_t i = 0; i < len; ++i) ++count[(keys[i] >> shift) & 0xff];
    const std::uint8_t first_byte = static_cast<std::uint8_t>((keys[0] >> shift) & 0xff);
    if (count[first_byte] == len) continue;  // all equal: pass is a no-op
    std::size_t offset = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      const std::size_t c = count[b];
      count[b] = offset;
      offset += c;
    }
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t dst = count[(keys[i] >> shift) & 0xff]++;
      keys_tmp[dst] = keys[i];
      idx_tmp[dst] = idx[i];
    }
    keys.swap(keys_tmp);
    idx.swap(idx_tmp);
  }
  std::memcpy(perm, idx.data(), len * sizeof(std::uint32_t));
}

}  // namespace

CESM_KERNEL void sort_perm_f32(const float* data, std::uint32_t* perm, std::size_t len) {
  sort_perm_impl(data, perm, len);
}
CESM_KERNEL void sort_perm_f64(const double* data, std::uint32_t* perm, std::size_t len) {
  sort_perm_impl(data, perm, len);
}

// ---------------------------------------------------------------------------
// APAX / GRIB2 / ISABELA quantization: branch-free exact llround.
//
// For |x| < 2^52, trunc(x) and x - trunc(x) are exact, so
//   m = trunc(x) + (frac >= 0.5) - (frac <= -0.5)
// reproduces llround's round-half-away-from-zero for every finite input.
// APAX and GRIB2 detect non-finite lanes with x - x == 0 (false for
// NaN/inf) and force them to 0 before any float->int conversion. ISABELA
// zeroes every lane outside |x| < 2^52 (NaN and inf included) in the
// branch-free pass, then recomputes just those lanes with std::llround.
// ---------------------------------------------------------------------------

CESM_KERNEL void apax_quantize(const double* src, std::size_t first, std::size_t len,
                               double scale, unsigned bits, std::size_t extra,
                               std::uint32_t* codes) {
  const auto run = [&](std::size_t i0, std::size_t i1, unsigned b) {
    const double q = static_cast<double>((1u << (b - 1)) - 1);
    const auto limit = static_cast<std::int32_t>(q);
    for (std::size_t i = i0; i < i1; ++i) {
      const double dv = src[i] / scale * q;
      const bool finite = dv - dv == 0.0;
      const double ds = finite ? dv : 0.0;
      const double t = std::trunc(ds);
      const double f = ds - t;
      auto m = static_cast<std::int32_t>(t) + (f >= 0.5 ? 1 : 0) - (f <= -0.5 ? 1 : 0);
      m = std::min(std::max(m, -limit), limit);
      codes[i - first] = static_cast<std::uint32_t>(m + limit);
    }
  };
  const std::size_t split = first + std::min(extra, len - first);
  run(first, split, bits + 1);
  run(split, len, bits);
}

namespace {

/// The correction quotient of one ISABELA sample.
CESM_KERNEL_HELPER double isabela_quotient(float sorted, double estimate, double eps_frac,
                                           double floor_abs) {
  const double step = eps_frac * std::max(std::fabs(estimate), floor_abs);
  return (static_cast<double>(sorted) - estimate) / step;
}

}  // namespace

CESM_KERNEL void isabela_quantize(const float* sorted, const double* estimate,
                                  std::size_t n, double eps_frac, double floor_abs,
                                  std::uint64_t* zz) {
  constexpr double kExactBelow = 0x1p52;
  bool any_wide = false;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = isabela_quotient(sorted[i], estimate[i], eps_frac, floor_abs);
    const bool exact = std::fabs(x) < kExactBelow;  // false for NaN and inf
    any_wide |= !exact;
    const double xs = exact ? x : 0.0;
    const double t = std::trunc(xs);
    const double f = xs - t;
    const std::int64_t m =
        static_cast<std::int64_t>(t) + (f >= 0.5 ? 1 : 0) - (f <= -0.5 ? 1 : 0);
    zz[i] = zigzag_encode(static_cast<std::uint64_t>(m));
  }
  if (!any_wide) return;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = isabela_quotient(sorted[i], estimate[i], eps_frac, floor_abs);
    if (!(std::fabs(x) < kExactBelow)) {
      zz[i] = zigzag_encode(static_cast<std::uint64_t>(std::llround(x)));
    }
  }
}

CESM_KERNEL void grib2_quantize(const float* data, const std::uint8_t* valid,
                                std::int64_t* q, std::size_t n, double lo, double step) {
  for (std::size_t i = 0; i < n; ++i) {
    const double dv = (static_cast<double>(data[i]) - lo) / step;
    const bool ok = (valid == nullptr || valid[i] != 0) && dv - dv == 0.0;
    const double ds = ok ? dv : 0.0;
    const double t = std::trunc(ds);
    const double f = ds - t;
    q[i] = static_cast<std::int64_t>(t) + (f >= 0.5 ? 1 : 0) - (f <= -0.5 ? 1 : 0);
  }
}

// ---------------------------------------------------------------------------
// 5/3 wavelet lifting. The mirror boundary reduces to two clamps: the
// predict step's right neighbour 2i+2 folds back to n-2 past the end, and
// the update step's d[i-1], d[i] clamp to [0, nd-1]. Rows lift one row at a
// time through a single copy; columns lift whole rows at a time (each
// lifting step walks c contiguously), which turns a strided gather per
// column into vectorizable row arithmetic. Integer ops only.
// ---------------------------------------------------------------------------

namespace {

/// Right predict neighbour of odd sample 2i+1 in a length-n signal.
CESM_KERNEL_HELPER std::size_t dwt_right(std::size_t i, std::size_t n) {
  return 2 * i + 2 <= n - 1 ? 2 * i + 2 : n - 2;
}

}  // namespace

CESM_KERNEL void dwt53_rows(std::int64_t* data, std::size_t cols, std::size_t r_lim,
                            std::size_t c_lim, bool inverse) {
  const std::size_t n = c_lim;
  if (n < 2) return;  // a single sample is its own transform
  const std::size_t ns = (n + 1) / 2, nd = n / 2;
  std::vector<std::int64_t> buf(n);
  for (std::size_t r = 0; r < r_lim; ++r) {
    std::int64_t* row = data + r * cols;
    std::memcpy(buf.data(), row, n * sizeof(std::int64_t));
    const std::int64_t* in = buf.data();
    if (inverse) {
      // Undo update, then undo predict from the rebuilt even samples.
      for (std::size_t i = 0; i < ns; ++i) {
        const std::int64_t dm = in[ns + (i > 0 ? i - 1 : 0)];
        const std::int64_t d0 = in[ns + std::min(i, nd - 1)];
        row[2 * i] = in[i] - ((dm + d0 + 2) >> 2);
      }
      for (std::size_t i = 0; i < nd; ++i) {
        row[2 * i + 1] = in[ns + i] + ((row[2 * i] + row[dwt_right(i, n)]) >> 1);
      }
    } else {
      // Predict into the high-pass half, then update the low-pass half.
      std::int64_t* d = row + ns;
      for (std::size_t i = 0; i < nd; ++i) {
        d[i] = in[2 * i + 1] - ((in[2 * i] + in[dwt_right(i, n)]) >> 1);
      }
      for (std::size_t i = 0; i < ns; ++i) {
        const std::int64_t dm = d[i > 0 ? i - 1 : 0];
        const std::int64_t d0 = d[std::min(i, nd - 1)];
        row[i] = in[2 * i] + ((dm + d0 + 2) >> 2);
      }
    }
  }
}

namespace {

CESM_KERNEL_HELPER void dwt53_cols_forward(std::int64_t* data, std::size_t cols,
                                           std::size_t r_lim, std::size_t c_lim) {
  const std::size_t n = r_lim;
  const std::size_t ns = (n + 1) / 2, nd = n / 2;
  std::vector<std::int64_t> dbuf(nd * c_lim);
  // Predict: d[i] = x[2i+1] - ((x[2i] + x[2i+2]) >> 1), mirror at the edge.
  for (std::size_t i = 0; i < nd; ++i) {
    const std::int64_t* x0 = data + (2 * i) * cols;
    const std::int64_t* x1 = data + (2 * i + 1) * cols;
    const std::int64_t* x2 = data + dwt_right(i, n) * cols;
    std::int64_t* di = dbuf.data() + i * c_lim;
    for (std::size_t c = 0; c < c_lim; ++c) di[c] = x1[c] - ((x0[c] + x2[c]) >> 1);
  }
  // Update: s[i] = x[2i] + ((d[i-1] + d[i] + 2) >> 2), d clamped at edges.
  // Writing s into row i is safe: it only reads x rows 2i >= i, none of
  // which have been overwritten yet.
  for (std::size_t i = 0; i < ns; ++i) {
    const std::int64_t* x0 = data + (2 * i) * cols;
    const std::int64_t* dm = dbuf.data() + (i > 0 ? i - 1 : 0) * c_lim;
    const std::int64_t* d0 = dbuf.data() + std::min(i, nd - 1) * c_lim;
    std::int64_t* out = data + i * cols;
    for (std::size_t c = 0; c < c_lim; ++c) out[c] = x0[c] + ((dm[c] + d0[c] + 2) >> 2);
  }
  for (std::size_t i = 0; i < nd; ++i) {
    std::memcpy(data + (ns + i) * cols, dbuf.data() + i * c_lim,
                c_lim * sizeof(std::int64_t));
  }
}

CESM_KERNEL_HELPER void dwt53_cols_inverse(std::int64_t* data, std::size_t cols,
                                           std::size_t r_lim, std::size_t c_lim) {
  const std::size_t n = r_lim;
  const std::size_t ns = (n + 1) / 2, nd = n / 2;
  std::vector<std::int64_t> ebuf(ns * c_lim);
  // Undo update: x[2i] = s[i] - ((d[i-1] + d[i] + 2) >> 2).
  for (std::size_t i = 0; i < ns; ++i) {
    const std::int64_t* si = data + i * cols;
    const std::int64_t* dm = data + (ns + (i > 0 ? i - 1 : 0)) * cols;
    const std::int64_t* d0 = data + (ns + std::min(i, nd - 1)) * cols;
    std::int64_t* ei = ebuf.data() + i * c_lim;
    for (std::size_t c = 0; c < c_lim; ++c) ei[c] = si[c] - ((dm[c] + d0[c] + 2) >> 2);
  }
  // Undo predict: x[2i+1] = d[i] + ((x[2i] + x[2i+2]) >> 1). Even samples
  // come from ebuf, so writing odd rows in place never clobbers an input
  // row before its read (the only overlap, 2i+1 == ns+i at the final step
  // of even n, is elementwise read-then-write).
  for (std::size_t i = 0; i < nd; ++i) {
    const std::int64_t* e0 = ebuf.data() + i * c_lim;
    const std::int64_t* e2 = ebuf.data() + (dwt_right(i, n) / 2) * c_lim;
    const std::int64_t* di = data + (ns + i) * cols;
    std::int64_t* odd = data + (2 * i + 1) * cols;
    for (std::size_t c = 0; c < c_lim; ++c) odd[c] = di[c] + ((e0[c] + e2[c]) >> 1);
  }
  for (std::size_t i = 0; i < ns; ++i) {
    std::memcpy(data + (2 * i) * cols, ebuf.data() + i * c_lim,
                c_lim * sizeof(std::int64_t));
  }
}

}  // namespace

CESM_KERNEL void dwt53_cols(std::int64_t* data, std::size_t cols, std::size_t r_lim,
                            std::size_t c_lim, bool inverse) {
  if (r_lim < 2) return;  // single-row columns: the 1-D transform is the identity
  if (inverse) {
    dwt53_cols_inverse(data, cols, r_lim, c_lim);
  } else {
    dwt53_cols_forward(data, cols, r_lim, c_lim);
  }
}

}  // namespace kernels
}  // namespace cesm::comp
