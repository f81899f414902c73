// The seed's per-element codec loops, verbatim (codec_kernels_reference.h).

#include "support/codec_kernels_reference.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "compress/fpz/predictor.h"
#include "util/error.h"

namespace cesm::comp::reference {

namespace {

// Symmetric (half-sample) boundary extension index.
inline std::size_t mirror(std::ptrdiff_t i, std::size_t n) {
  if (n == 1) return 0;
  const auto period = static_cast<std::ptrdiff_t>(2 * n - 2);
  std::ptrdiff_t j = i % period;
  if (j < 0) j += period;
  if (j >= static_cast<std::ptrdiff_t>(n)) j = period - j;
  return static_cast<std::size_t>(j);
}

}  // namespace

void dwt53_forward_1d(std::span<const std::int64_t> in, std::span<std::int64_t> out) {
  const std::size_t n = in.size();
  CESM_REQUIRE(out.size() == n);
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const std::size_t ns = (n + 1) / 2;  // low-pass count
  const std::size_t nd = n / 2;        // high-pass count

  const auto x = [&](std::ptrdiff_t i) { return in[mirror(i, n)]; };

  // Predict: d[i] = x[2i+1] - floor((x[2i] + x[2i+2]) / 2)
  std::vector<std::int64_t> d(nd);
  for (std::size_t i = 0; i < nd; ++i) {
    const auto k = static_cast<std::ptrdiff_t>(2 * i);
    d[i] = x(k + 1) - ((x(k) + x(k + 2)) >> 1);
  }
  // Update: s[i] = x[2i] + floor((d[i-1] + d[i] + 2) / 4)
  const auto dd = [&](std::ptrdiff_t i) -> std::int64_t {
    if (nd == 0) return 0;
    if (i < 0) i = 0;  // mirror of d at the left edge
    if (i >= static_cast<std::ptrdiff_t>(nd)) i = static_cast<std::ptrdiff_t>(nd) - 1;
    return d[static_cast<std::size_t>(i)];
  };
  for (std::size_t i = 0; i < ns; ++i) {
    const auto ii = static_cast<std::ptrdiff_t>(i);
    out[i] = in[2 * i] + ((dd(ii - 1) + dd(ii) + 2) >> 2);
  }
  for (std::size_t i = 0; i < nd; ++i) out[ns + i] = d[i];
}

void dwt53_inverse_1d(std::span<const std::int64_t> in, std::span<std::int64_t> out) {
  const std::size_t n = in.size();
  CESM_REQUIRE(out.size() == n);
  if (n == 1) {
    out[0] = in[0];
    return;
  }
  const std::size_t ns = (n + 1) / 2;
  const std::size_t nd = n / 2;

  const auto dd = [&](std::ptrdiff_t i) -> std::int64_t {
    if (nd == 0) return 0;
    if (i < 0) i = 0;
    if (i >= static_cast<std::ptrdiff_t>(nd)) i = static_cast<std::ptrdiff_t>(nd) - 1;
    return in[ns + static_cast<std::size_t>(i)];
  };

  // Undo update: x[2i] = s[i] - floor((d[i-1] + d[i] + 2) / 4)
  for (std::size_t i = 0; i < ns; ++i) {
    const auto ii = static_cast<std::ptrdiff_t>(i);
    out[2 * i] = in[i] - ((dd(ii - 1) + dd(ii) + 2) >> 2);
  }
  // Undo predict: x[2i+1] = d[i] + floor((x[2i] + x[2i+2]) / 2)
  const auto xe = [&](std::ptrdiff_t k) -> std::int64_t {
    // Even reconstructed samples with mirror extension.
    const std::size_t m = mirror(k, n);
    CESM_ASSERT(m % 2 == 0 || m == n - 1);
    return out[m % 2 == 0 ? m : m - 1];  // defensive; mirror of even stays even
  };
  for (std::size_t i = 0; i < nd; ++i) {
    const auto k = static_cast<std::ptrdiff_t>(2 * i);
    out[2 * i + 1] = in[ns + i] + ((xe(k) + xe(k + 2)) >> 1);
  }
}

void ordered_from_f32(const float* src, std::uint32_t* dst, std::size_t n,
                      unsigned shift) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_to_ordered(src[i]) >> shift;
}

void ordered_from_f64(const double* src, std::uint64_t* dst, std::size_t n,
                      unsigned shift) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = double_to_ordered(src[i]) >> shift;
}

void f32_from_ordered(const std::uint32_t* q, float* dst, std::size_t n,
                      unsigned shift, std::uint32_t half) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = ordered_to_float(static_cast<std::uint32_t>((q[i] << shift) | half));
  }
}

void f64_from_ordered(const std::uint64_t* q, double* dst, std::size_t n,
                      unsigned shift, std::uint64_t half) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = ordered_to_double(static_cast<std::uint64_t>((q[i] << shift) | half));
  }
}

namespace {

template <typename U>
void lorenzo_residuals_impl(const U* q, U* zz, Dims d) {
  const std::size_t n = d.planes * d.rows * d.cols;
  const LorenzoPredictor<U> pred(std::span<const U>(q, n), d.rows, d.cols, d.planes);
  for (std::size_t i = 0; i < n; ++i) {
    zz[i] = zigzag_encode(static_cast<U>(q[i] - pred.predict(i)));
  }
}

template <typename U>
void lorenzo_reconstruct_impl(U* q, const U* zz, Dims d) {
  const std::size_t n = d.planes * d.rows * d.cols;
  const LorenzoPredictor<U> pred(std::span<const U>(q, n), d.rows, d.cols, d.planes);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = static_cast<U>(pred.predict(i) + zigzag_decode(zz[i]));
  }
}

}  // namespace

void lorenzo_residuals_u32(const std::uint32_t* q, std::uint32_t* zz, Dims d) {
  lorenzo_residuals_impl(q, zz, d);
}
void lorenzo_residuals_u64(const std::uint64_t* q, std::uint64_t* zz, Dims d) {
  lorenzo_residuals_impl(q, zz, d);
}
void lorenzo_reconstruct_u32(std::uint32_t* q, const std::uint32_t* zz, Dims d) {
  lorenzo_reconstruct_impl(q, zz, d);
}
void lorenzo_reconstruct_u64(std::uint64_t* q, const std::uint64_t* zz, Dims d) {
  lorenzo_reconstruct_impl(q, zz, d);
}

namespace {

template <typename T>
void sort_perm_impl(const T* data, std::uint32_t* perm, std::size_t len) {
  std::iota(perm, perm + len, 0u);
  std::stable_sort(perm, perm + len,
                   [&](std::uint32_t a, std::uint32_t b) { return data[a] < data[b]; });
}

}  // namespace

void sort_perm_f32(const float* data, std::uint32_t* perm, std::size_t len) {
  sort_perm_impl(data, perm, len);
}
void sort_perm_f64(const double* data, std::uint32_t* perm, std::size_t len) {
  sort_perm_impl(data, perm, len);
}

void apax_quantize(const double* src, std::size_t first, std::size_t len, double scale,
                   unsigned bits, std::size_t extra, std::uint32_t* codes) {
  for (std::size_t i = first; i < len; ++i) {
    const unsigned b = bits + ((i - first) < extra ? 1 : 0);
    const double q = static_cast<double>((1u << (b - 1)) - 1);
    const auto limit = static_cast<std::int32_t>(q);
    const double d = src[i] / scale * q;
    // Non-finite samples reproduce llround's glibc INT64_MIN narrowed to 0.
    auto m = std::isfinite(d) ? static_cast<std::int32_t>(std::llround(d)) : 0;
    m = std::clamp(m, -limit, limit);
    codes[i - first] = static_cast<std::uint32_t>(m + limit);
  }
}

void isabela_quantize(const float* sorted, const double* estimate, std::size_t n,
                      double eps_frac, double floor_abs, std::uint64_t* zz) {
  for (std::size_t i = 0; i < n; ++i) {
    const double step = eps_frac * std::max(std::fabs(estimate[i]), floor_abs);
    const double diff = static_cast<double>(sorted[i]) - estimate[i];
    const auto m = static_cast<std::int64_t>(std::llround(diff / step));
    zz[i] = zigzag_encode(static_cast<std::uint64_t>(m));
  }
}

void grib2_quantize(const float* data, const std::uint8_t* valid, std::int64_t* q,
                    std::size_t n, double lo, double step) {
  for (std::size_t i = 0; i < n; ++i) {
    if (valid != nullptr && !valid[i]) {
      q[i] = 0;
      continue;
    }
    const double dv = (static_cast<double>(data[i]) - lo) / step;
    // Codecs reject non-finite data before quantizing; keep the kernel
    // total (and equal to the vectorized one) anyway.
    q[i] = std::isfinite(dv) ? std::llround(dv) : 0;
  }
}

void dwt53_rows(std::int64_t* data, std::size_t cols, std::size_t r_lim,
                std::size_t c_lim, bool inverse) {
  std::vector<std::int64_t> buf(c_lim), tmp(c_lim);
  for (std::size_t r = 0; r < r_lim; ++r) {
    for (std::size_t c = 0; c < c_lim; ++c) buf[c] = data[r * cols + c];
    if (inverse) {
      dwt53_inverse_1d(buf, tmp);
    } else {
      dwt53_forward_1d(buf, tmp);
    }
    for (std::size_t c = 0; c < c_lim; ++c) data[r * cols + c] = tmp[c];
  }
}

void dwt53_cols(std::int64_t* data, std::size_t cols, std::size_t r_lim,
                std::size_t c_lim, bool inverse) {
  std::vector<std::int64_t> buf(r_lim), tmp(r_lim);
  for (std::size_t c = 0; c < c_lim; ++c) {
    for (std::size_t r = 0; r < r_lim; ++r) buf[r] = data[r * cols + c];
    if (inverse) {
      dwt53_inverse_1d(buf, tmp);
    } else {
      dwt53_forward_1d(buf, tmp);
    }
    for (std::size_t r = 0; r < r_lim; ++r) data[r * cols + c] = tmp[r];
  }
}

}  // namespace cesm::comp::reference
