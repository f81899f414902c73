#include "compress/isabela/isabela.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "compress/bitio.h"
#include "compress/codec_kernels.h"
#include "compress/isabela/bspline.h"
#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "compress/fpz/predictor.h"  // zigzag helpers
#include "util/failpoint.h"

namespace cesm::comp {

namespace {

constexpr std::uint32_t kIsaMagic = 0x31415349;  // "ISA1"

unsigned bits_for(std::size_t count) {
  return count <= 1 ? 1 : static_cast<unsigned>(std::bit_width(count - 1));
}

/// Per-point correction step: relative to the spline estimate, floored so
/// near-zero values cannot demand unbounded correction indices.
inline double correction_step(double estimate, double eps_frac, double floor_abs) {
  return eps_frac * std::max(std::fabs(estimate), floor_abs);
}

inline void sort_window(const float* data, std::uint32_t* perm, std::size_t len) {
  kernels::sort_perm_f32(data, perm, len);
}
inline void sort_window(const double* data, std::uint32_t* perm, std::size_t len) {
  kernels::sort_perm_f64(data, perm, len);
}

template <typename T>
Bytes isa_encode_impl(std::span<const T> data, const Shape& shape, double eps_frac,
                      std::size_t window, std::size_t coefficients) {
  CESM_REQUIRE(shape.count() == data.size());
  // Mirror the decoder's header checks: parameters that decode() would
  // reject (or that the u32/u16 header fields would truncate into a
  // rejectable value) must never produce a stream.
  CESM_REQUIRE(eps_frac > 0.0 && eps_frac < 1.0);
  CESM_REQUIRE(window > 0 && window <= (1u << 20));
  CESM_REQUIRE(coefficients >= 4 && coefficients <= 0xffff);
  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, kIsaMagic, shape);
  w.u8(sizeof(T));
  w.f64(eps_frac);
  w.u32(static_cast<std::uint32_t>(window));
  w.u16(static_cast<std::uint16_t>(coefficients));

  const std::size_t n = data.size();
  const std::size_t nwin = (n + window - 1) / window;

  // Window payloads are concatenated; each is (coeffs, floor, permutation,
  // range-coded corrections) with a byte-length prefix for random access.
  for (std::size_t wi = 0; wi < nwin; ++wi) {
    const std::size_t lo = wi * window;
    const std::size_t len = std::min(window, n - lo);

    std::vector<std::uint32_t> perm(len);
    sort_window(data.data() + lo, perm.data(), len);

    std::vector<float> sorted(len);
    for (std::size_t i = 0; i < len; ++i) {
      sorted[i] = static_cast<float>(data[lo + perm[i]]);
    }

    const std::size_t ncoef = std::max<std::size_t>(4, std::min(coefficients, len));
    const CubicBSpline spline = CubicBSpline::fit(sorted, ncoef);
    const std::vector<double> estimate = spline.evaluate_all();

    double max_abs = 0.0;
    for (float v : sorted) max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
    const double floor_abs = std::max(1e-7 * max_abs, 1e-300);

    Bytes payload;
    ByteWriter pw(payload);
    pw.u32(static_cast<std::uint32_t>(len));
    pw.u16(static_cast<std::uint16_t>(ncoef));
    pw.f64(floor_abs);
    for (double c : spline.coefficients()) pw.f64(c);

    {
      BitWriter bw(payload);
      const unsigned pbits = bits_for(len);
      for (std::uint32_t p : perm) bw.put(p, pbits);
      bw.align();
    }
    {
      RangeEncoder enc(payload);
      ResidualEncoder coder;
      for (std::size_t i = 0; i < len; ++i) {
        const double step = correction_step(estimate[i], eps_frac, floor_abs);
        const double diff = static_cast<double>(sorted[i]) - estimate[i];
        const auto m = static_cast<std::int64_t>(std::llround(diff / step));
        coder.encode(enc, zigzag_encode(static_cast<std::uint64_t>(m)));
      }
      enc.finish();
    }

    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
  }
  return out;
}

template <typename T>
std::vector<T> isa_decode_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kIsaMagic);
  const std::size_t elem = r.u8();
  if (elem != sizeof(T)) throw FormatError("isabela element size mismatch");
  const double eps_frac = r.f64();
  const std::size_t window = r.u32();
  const std::size_t coefficients = r.u16();
  if (window == 0 || coefficients < 4) throw FormatError("isabela bad parameters");

  const std::size_t n = shape.count();
  std::vector<T> out(n);
  const std::size_t nwin = (n + window - 1) / window;
  for (std::size_t wi = 0; wi < nwin; ++wi) {
    const std::size_t lo = wi * window;
    const std::uint32_t payload_size = r.u32();
    ByteReader pr(r.raw(payload_size));

    const std::size_t len = pr.u32();
    if (len == 0 || len > window || lo + len > n) throw FormatError("isabela bad window");
    const std::size_t ncoef = pr.u16();
    if (ncoef < 4 || ncoef > len + 4) throw FormatError("isabela bad coefficient count");
    const double floor_abs = pr.f64();
    std::vector<double> coeff(ncoef);
    for (double& c : coeff) c = pr.f64();
    const CubicBSpline spline(std::move(coeff), len);

    const unsigned pbits = bits_for(len);
    const std::size_t perm_bytes = (len * pbits + 7) / 8;
    std::vector<std::uint32_t> perm(len);
    {
      BitReader br(pr.raw(perm_bytes));
      for (auto& p : perm) {
        p = static_cast<std::uint32_t>(br.get(pbits));
        if (p >= len) throw FormatError("isabela permutation out of range");
      }
    }

    // The spline is evaluated point by point inside the correction loop:
    // its arithmetic does not depend on the decoded bits, so it overlaps
    // with the range decoder's serial chain instead of running before it.
    ResidualDecoder<> dec(pr.raw(pr.remaining()));
    for (std::size_t i = 0; i < len; ++i) {
      const auto m = static_cast<std::int64_t>(zigzag_decode(dec.decode()));
      const double estimate = spline.evaluate(i);
      const double step = correction_step(estimate, eps_frac, floor_abs);
      const double value = estimate + static_cast<double>(m) * step;
      out[lo + perm[i]] = static_cast<T>(value);
    }
  }
  return out;
}

// Variant-invariant stage of the float encode: ISABELA's dominant cost is
// the per-window sort + B-spline fit, and the error bound (eps) only
// enters the correction loop — so one plan serves every ISA-x.y variant.
// `sorted` keeps the float-precision values the direct path casts through,
// and `estimate` the spline evaluation over them, so the correction
// quantization sees bit-identical doubles.
struct IsaWindow {
  std::vector<std::uint32_t> perm;
  std::vector<float> sorted;
  std::vector<double> coeffs;
  std::vector<double> estimate;
  double floor_abs = 0.0;
};

struct IsaPlan final : PrepPlan {
  std::vector<IsaWindow> windows;
  std::size_t n = 0;
};

}  // namespace

IsabelaCodec::IsabelaCodec(double rel_error_percent, std::size_t window,
                           std::size_t coefficients)
    : rel_error_percent_(rel_error_percent), window_(window), coefficients_(coefficients) {
  CESM_REQUIRE(rel_error_percent > 0.0 && rel_error_percent < 100.0);
  CESM_REQUIRE(window >= 16 && window <= (1u << 20));
  // The stream header stores the coefficient count as u16; anything wider
  // would truncate into a value decode() rejects.
  CESM_REQUIRE(coefficients >= 4 && coefficients <= window && coefficients <= 0xffff);
}

std::string IsabelaCodec::name() const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "ISA-%.1f", rel_error_percent_);
  return buf;
}

Bytes IsabelaCodec::encode(std::span<const float> data, const Shape& shape) const {
  return isa_encode_impl<float>(data, shape, rel_error_percent_ / 100.0, window_,
                                coefficients_);
}

std::vector<float> IsabelaCodec::decode(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("isabela.decode");
  return isa_decode_impl<float>(stream);
}

Bytes IsabelaCodec::encode64(std::span<const double> data, const Shape& shape) const {
  return isa_encode_impl<double>(data, shape, rel_error_percent_ / 100.0, window_,
                                 coefficients_);
}

std::vector<double> IsabelaCodec::decode64(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("isabela.decode");
  return isa_decode_impl<double>(stream);
}

std::string IsabelaCodec::prep_key() const {
  return "isa:w" + std::to_string(window_) + ":c" + std::to_string(coefficients_);
}

PrepPlanPtr IsabelaCodec::build_prep(std::span<const float> data,
                                     const Shape& shape) const {
  CESM_REQUIRE(shape.count() == data.size());
  const std::size_t n = data.size();
  const std::size_t nwin = (n + window_ - 1) / window_;

  auto plan = std::make_shared<IsaPlan>();
  plan->n = n;
  plan->windows.resize(nwin);
  for (std::size_t wi = 0; wi < nwin; ++wi) {
    const std::size_t lo = wi * window_;
    const std::size_t len = std::min(window_, n - lo);
    IsaWindow& win = plan->windows[wi];

    win.perm.resize(len);
    sort_window(data.data() + lo, win.perm.data(), len);

    win.sorted.resize(len);
    for (std::size_t i = 0; i < len; ++i) win.sorted[i] = data[lo + win.perm[i]];

    const std::size_t ncoef = std::max<std::size_t>(4, std::min(coefficients_, len));
    const CubicBSpline spline = CubicBSpline::fit(win.sorted, ncoef);
    win.coeffs = spline.coefficients();
    win.estimate = spline.evaluate_all();

    double max_abs = 0.0;
    for (float v : win.sorted) {
      max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
    }
    win.floor_abs = std::max(1e-7 * max_abs, 1e-300);
  }
  return plan;
}

Bytes IsabelaCodec::encode_with_prep(const PrepPlan& plan, std::span<const float> data,
                                     const Shape& shape) const {
  const auto* p = dynamic_cast<const IsaPlan*>(&plan);
  CESM_REQUIRE(p != nullptr && p->n == data.size());
  CESM_REQUIRE(shape.count() == data.size());
  const double eps_frac = rel_error_percent_ / 100.0;
  CESM_REQUIRE(eps_frac > 0.0 && eps_frac < 1.0);
  CESM_REQUIRE(window_ > 0 && window_ <= (1u << 20));
  CESM_REQUIRE(coefficients_ >= 4 && coefficients_ <= 0xffff);

  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, kIsaMagic, shape);
  w.u8(sizeof(float));
  w.f64(eps_frac);
  w.u32(static_cast<std::uint32_t>(window_));
  w.u16(static_cast<std::uint16_t>(coefficients_));

  for (const IsaWindow& win : p->windows) {
    const std::size_t len = win.sorted.size();

    Bytes payload;
    ByteWriter pw(payload);
    pw.u32(static_cast<std::uint32_t>(len));
    pw.u16(static_cast<std::uint16_t>(win.coeffs.size()));
    pw.f64(win.floor_abs);
    for (double c : win.coeffs) pw.f64(c);

    {
      BitWriter bw(payload);
      const unsigned pbits = bits_for(len);
      for (std::uint32_t q : win.perm) bw.put(q, pbits);
      bw.align();
    }
    {
      RangeEncoder enc(payload);
      ResidualEncoder coder;
      for (std::size_t i = 0; i < len; ++i) {
        const double step = correction_step(win.estimate[i], eps_frac, win.floor_abs);
        const double diff = static_cast<double>(win.sorted[i]) - win.estimate[i];
        const auto m = static_cast<std::int64_t>(std::llround(diff / step));
        coder.encode(enc, zigzag_encode(static_cast<std::uint64_t>(m)));
      }
      enc.finish();
    }

    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.raw(payload);
  }
  return out;
}

}  // namespace cesm::comp
