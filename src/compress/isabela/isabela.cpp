#include "compress/isabela/isabela.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <vector>

#include "compress/bitio.h"
#include "compress/codec_kernels.h"
#include "compress/isabela/bspline.h"
#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "compress/fpz/predictor.h"  // zigzag helpers
#include "util/error.h"
#include "util/failpoint.h"

namespace cesm::comp {

namespace {

constexpr std::uint32_t kIsaMagic = 0x32415349;  // "ISA2"

unsigned bits_for(std::size_t count) {
  return count <= 1 ? 1 : static_cast<unsigned>(std::bit_width(count - 1));
}

/// Per-point correction step: relative to the spline estimate, floored so
/// near-zero values cannot demand unbounded correction indices. The same
/// formula as kernels::isabela_quantize.
inline double correction_step(double estimate, double eps_frac, double floor_abs) {
  return eps_frac * std::max(std::fabs(estimate), floor_abs);
}

inline void sort_window(const float* data, std::uint32_t* perm, std::size_t len) {
  kernels::sort_perm_f32(data, perm, len);
}
inline void sort_window(const double* data, std::uint32_t* perm, std::size_t len) {
  kernels::sort_perm_f64(data, perm, len);
}

// Variant-invariant stage of the encode: ISABELA's dominant cost is the
// per-window sort + B-spline fit, and the error bound (eps) only enters
// the correction coding, so one plan serves every ISA-x.y variant. A
// window keeps what differs between windows: its sorted values (at float
// precision, which both element sizes fit through), its fit, its floor and
// its finished head. The estimates are recomputed from the basis by each
// variant rather than stored.
struct IsaWindow {
  std::vector<float> sorted;
  std::vector<double> coeffs;
  double floor_abs = 0.0;
  const SplineBasis* basis = nullptr;
  // Everything of the window's payload ahead of the corrections: length,
  // coefficient count, floor, coefficients and the packed permutation.
  Bytes head;
};

struct IsaPlan final : PrepPlan {
  std::vector<IsaWindow> windows;
  std::size_t n = 0;
  // The basis of a last window shorter than the codec window; full
  // windows use the codec shape's shared basis.
  std::optional<SplineBasis> tail_basis;
};

template <typename T>
std::shared_ptr<IsaPlan> isa_prep(std::span<const T> data, const Shape& shape,
                                  std::size_t window, std::size_t coefficients) {
  CESM_REQUIRE(shape.count() == data.size());
  // One NaN or infinity would make its window's spline coefficients
  // non-finite and decode the whole window as NaN. ISABELA has no special
  // value path (capabilities().special_values), so reject it, as GRIB2 does.
  if (!std::all_of(data.begin(), data.end(), [](T v) { return std::isfinite(v); })) {
    throw InvalidArgument("isabela cannot encode non-finite data");
  }
  const std::size_t n = data.size();
  const std::size_t nwin = (n + window - 1) / window;

  auto plan = std::make_shared<IsaPlan>();
  plan->n = n;
  plan->windows.resize(nwin);
  std::vector<std::uint32_t> perm(std::min(window, n));
  const SplineBasis* full = nullptr;  // fetched at the first full window
  for (std::size_t wi = 0; wi < nwin; ++wi) {
    const std::size_t lo = wi * window;
    const std::size_t len = std::min(window, n - lo);
    const std::size_t ncoef = std::max<std::size_t>(4, std::min(coefficients, len));
    IsaWindow& win = plan->windows[wi];

    sort_window(data.data() + lo, perm.data(), len);
    win.sorted.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      win.sorted[i] = static_cast<float>(data[lo + perm[i]]);
    }

    if (len == window) {
      if (full == nullptr) full = &SplineBasis::shared(len, ncoef);
      win.basis = full;
    } else {
      win.basis = &plan->tail_basis.emplace(len, ncoef);
    }
    win.coeffs = win.basis->fit(win.sorted);

    double max_abs = 0.0;
    for (float v : win.sorted) {
      max_abs = std::max(max_abs, std::fabs(static_cast<double>(v)));
    }
    win.floor_abs = std::max(1e-7 * max_abs, 1e-300);

    const unsigned pbits = bits_for(len);
    win.head.reserve(4 + 2 + 8 * (1 + ncoef) + (len * pbits + 7) / 8);
    ByteWriter hw(win.head);
    hw.u32(static_cast<std::uint32_t>(len));
    hw.u16(static_cast<std::uint16_t>(ncoef));
    hw.f64(win.floor_abs);
    for (double c : win.coeffs) hw.f64(c);
    BitWriter bw(win.head);
    for (std::size_t i = 0; i < len; ++i) bw.put(perm[i], pbits);
    bw.align();
  }
  return plan;
}

/// The stream of one variant: each window is a u32 byte length, the plan's
/// head, then the range-coded corrections, written straight into `out` and
/// the length patched in afterwards.
Bytes isa_encode(const IsaPlan& plan, const Shape& shape, std::uint8_t elem_size,
                 double eps_frac, std::size_t window, std::size_t coefficients) {
  // Mirror the decoder's header checks: parameters that decode() would
  // reject (or that the u32/u16 header fields would truncate into a
  // rejectable value) must never produce a stream.
  CESM_REQUIRE(eps_frac > 0.0 && eps_frac < 1.0);
  CESM_REQUIRE(window > 0 && window <= (1u << 20));
  CESM_REQUIRE(coefficients >= 4 && coefficients <= 0xffff);

  std::size_t heads = 0;
  for (const IsaWindow& win : plan.windows) heads += 4 + win.head.size();
  Bytes out;
  out.reserve(64 + heads + plan.n);
  ByteWriter w(out);
  wire::write_header(w, kIsaMagic, shape);
  w.u8(elem_size);
  w.f64(eps_frac);
  w.u32(static_cast<std::uint32_t>(window));
  w.u16(static_cast<std::uint16_t>(coefficients));

  const std::size_t most = std::min(window, plan.n);
  std::vector<double> estimate(most);
  std::vector<std::uint64_t> zz(most);
  ResidualTally tally;
  for (const IsaWindow& win : plan.windows) {
    const std::size_t len = win.sorted.size();
    const std::size_t at = out.size();
    w.u32(0);  // payload length, patched below
    w.raw(win.head);

    for (std::size_t i = 0; i < len; ++i) estimate[i] = win.basis->evaluate(win.coeffs.data(), i);
    kernels::isabela_quantize(win.sorted.data(), estimate.data(), len, eps_frac, win.floor_abs,
                              zz.data());
    RangeEncoder enc(out);
    ResidualEncoder coder;
    for (std::size_t i = 0; i < len; ++i) coder.encode(enc, zz[i]);
    enc.finish();
    tally += coder.tally();

    const auto payload = static_cast<std::uint32_t>(out.size() - at - 4);
    for (std::size_t k = 0; k < 4; ++k) out[at + k] = static_cast<std::uint8_t>(payload >> (8 * k));
  }
  tally.add_to_counters();
  return out;
}

/// Decode a stream written by any ISABELA codec. A window of the decoding
/// codec's own shape (`window`, `coefficients`) evaluates on that shape's
/// shared basis; a window of any other shape on a basis built for that
/// window only, so values read from the stream never grow the shared set.
template <typename T>
std::vector<T> isa_decode_impl(std::span<const std::uint8_t> stream, std::size_t window,
                               std::size_t coefficients) {
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kIsaMagic);
  const std::size_t elem = r.u8();
  if (elem != sizeof(T)) throw FormatError("isabela element size mismatch");
  const double eps_frac = r.f64();
  const std::size_t stream_window = r.u32();
  const std::size_t stream_coefficients = r.u16();
  if (stream_window == 0 || stream_coefficients < 4) {
    throw FormatError("isabela bad parameters");
  }

  const std::size_t n = shape.count();
  const std::size_t nwin = (n + stream_window - 1) / stream_window;
  // Every window starts with a u32 length: a header that promises more
  // windows than the stream can hold is damaged, and must not drive the
  // output allocation.
  if (nwin > r.remaining() / 4) throw FormatError("isabela stream too short for its windows");
  std::vector<T> out(n);
  std::vector<double> coeff;
  std::vector<std::uint32_t> perm;
  const SplineBasis* own = nullptr;  // fetched at the first window of the codec's shape
  std::optional<SplineBasis> local;
  for (std::size_t wi = 0; wi < nwin; ++wi) {
    const std::size_t lo = wi * stream_window;
    const std::uint32_t payload_size = r.u32();
    ByteReader pr(r.raw(payload_size));

    const std::size_t len = pr.u32();
    if (len == 0 || len > stream_window || lo + len > n) {
      throw FormatError("isabela bad window");
    }
    const std::size_t ncoef = pr.u16();
    if (ncoef < 4 || ncoef > len + 4) throw FormatError("isabela bad coefficient count");
    const double floor_abs = pr.f64();
    coeff.resize(ncoef);
    for (double& c : coeff) c = pr.f64();

    const unsigned pbits = bits_for(len);
    const std::size_t perm_bytes = (len * pbits + 7) / 8;
    perm.resize(len);
    {
      BitReader br(pr.raw(perm_bytes));
      for (auto& p : perm) {
        p = static_cast<std::uint32_t>(br.get(pbits));
        if (p >= len) throw FormatError("isabela permutation out of range");
      }
    }

    const SplineBasis* basis = nullptr;
    if (len == window && ncoef == coefficients) {
      if (own == nullptr) own = &SplineBasis::shared(window, coefficients);
      basis = own;
    } else {
      basis = &local.emplace(len, ncoef);
    }

    // The spline is evaluated point by point inside the correction loop:
    // its arithmetic does not depend on the decoded bits, so it overlaps
    // with the range decoder's serial chain instead of running before it.
    ResidualDecoder<> dec(pr.raw(pr.remaining()));
    for (std::size_t i = 0; i < len; ++i) {
      const auto m = static_cast<std::int64_t>(zigzag_decode(dec.decode()));
      const double estimate = basis->evaluate(coeff.data(), i);
      const double step = correction_step(estimate, eps_frac, floor_abs);
      const double value = estimate + static_cast<double>(m) * step;
      out[lo + perm[i]] = static_cast<T>(value);
    }
  }
  return out;
}

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
  return encode_with_prep(*build_prep(data, shape), data, shape);
}

std::vector<float> IsabelaCodec::decode(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("isabela.decode");
  return isa_decode_impl<float>(stream, window_, coefficients_);
}

Bytes IsabelaCodec::encode64(std::span<const double> data, const Shape& shape) const {
  return isa_encode(*isa_prep(data, shape, window_, coefficients_), shape, sizeof(double),
                    rel_error_percent_ / 100.0, window_, coefficients_);
}

std::vector<double> IsabelaCodec::decode64(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("isabela.decode");
  return isa_decode_impl<double>(stream, window_, coefficients_);
}

std::string IsabelaCodec::prep_key() const {
  return "isa:w" + std::to_string(window_) + ":c" + std::to_string(coefficients_);
}

PrepPlanPtr IsabelaCodec::build_prep(std::span<const float> data,
                                     const Shape& shape) const {
  return isa_prep(data, shape, window_, coefficients_);
}

Bytes IsabelaCodec::encode_with_prep(const PrepPlan& plan, std::span<const float> data,
                                     const Shape& shape) const {
  const auto* p = dynamic_cast<const IsaPlan*>(&plan);
  CESM_REQUIRE(p != nullptr && p->n == data.size());
  CESM_REQUIRE(shape.count() == data.size());
  return isa_encode(*p, shape, sizeof(float), rel_error_percent_ / 100.0, window_,
                    coefficients_);
}

}  // namespace cesm::comp
