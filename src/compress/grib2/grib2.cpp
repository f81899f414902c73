#include "compress/grib2/grib2.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "compress/codec_kernels.h"
#include "compress/fpz/predictor.h"  // zigzag helpers
#include "compress/grib2/wavelet.h"
#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "util/failpoint.h"

namespace cesm::comp {

namespace {

constexpr std::uint32_t kGribMagic = 0x33425247;  // "GRB3"
constexpr std::int64_t kMaxQuantized = 1ll << 28;  // before wavelet growth

struct Dims2 {
  std::size_t rows = 1, cols = 1;
};

Dims2 to_dims2(const Shape& shape) {
  Dims2 d;
  switch (shape.rank()) {
    case 1:
      d.cols = shape.dims[0];
      break;
    case 2:
      d.rows = shape.dims[0];
      d.cols = shape.dims[1];
      break;
    case 3:
      d.rows = shape.dims[0] * shape.dims[1];
      d.cols = shape.dims[2];
      break;
    default:
      throw InvalidArgument("grib2 supports rank 1..3");
  }
  return d;
}

}  // namespace

Grib2Codec::Grib2Codec(int decimal_scale, std::optional<float> missing_value)
    : decimal_scale_(decimal_scale), missing_value_(missing_value) {
  CESM_REQUIRE(decimal_scale >= -30 && decimal_scale <= 30);
}

std::string Grib2Codec::name() const { return "GRIB2"; }

Bytes Grib2Codec::encode(std::span<const float> data, const Shape& shape) const {
  CESM_REQUIRE(shape.count() == data.size());
  const std::size_t n = data.size();

  // Validity bitmap (native GRIB2 missing-value support).
  std::vector<std::uint8_t> valid(n, 1);
  bool any_missing = false;
  if (missing_value_) {
    for (std::size_t i = 0; i < n; ++i) {
      if (data[i] == *missing_value_) {
        valid[i] = 0;
        any_missing = true;
      }
    }
  }

  // Reference value and quantization step. Non-finite points have no
  // quantized representation: an infinity would spin the binary-scale
  // search forever and a NaN would silently encode as garbage, so both are
  // rejected up front (the decoder could never reproduce them anyway).
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (!valid[i]) continue;
    if (!std::isfinite(data[i])) {
      throw InvalidArgument("grib2 cannot encode non-finite data");
    }
    lo = std::min(lo, static_cast<double>(data[i]));
    hi = std::max(hi, static_cast<double>(data[i]));
  }
  if (!(lo <= hi)) {  // entirely missing
    lo = 0.0;
    hi = 0.0;
  }

  const double dec_scale = std::pow(10.0, decimal_scale_);
  int binary_scale = 0;  // E: coarsen when the integer range would blow up
  while (std::ldexp((hi - lo) * dec_scale, -binary_scale) >
         static_cast<double>(kMaxQuantized)) {
    // decode() rejects binary scales above 62; refuse to emit one. (A float
    // range times 10^30 tops out near 10^68 ~ 2^226, far past 62 doublings.)
    if (++binary_scale > 62) {
      throw InvalidArgument("grib2 data range too wide for decimal scale");
    }
  }
  const double step = std::ldexp(1.0, binary_scale) / dec_scale;

  std::vector<std::int64_t> q(n);
  kernels::grib2_quantize(data.data(), any_missing ? valid.data() : nullptr, q.data(), n,
                          lo, step);

  const Dims2 dims = to_dims2(shape);
  const unsigned levels = dwt53_forward_2d(q, dims.rows, dims.cols, 5);

  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, kGribMagic, shape);
  w.f64(lo);
  w.i32(decimal_scale_);
  w.i32(binary_scale);
  w.u8(levels);
  w.u8(any_missing ? 1 : 0);
  if (missing_value_) {
    w.u8(1);
    w.f32(*missing_value_);
  } else {
    w.u8(0);
    w.f32(0.0f);
  }

  RangeEncoder enc(out);
  if (any_missing) encode_validity_runs(enc, valid);
  ResidualEncoder coeff_coder;
  for (std::size_t i = 0; i < n; ++i) {
    coeff_coder.encode(enc, zigzag_encode(static_cast<std::uint64_t>(q[i])));
  }
  enc.finish();
  coeff_coder.tally().add_to_counters();
  return out;
}

std::vector<float> Grib2Codec::decode(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("grib2.decode");
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kGribMagic);
  const double lo = r.f64();
  const int dscale = r.i32();
  const int bscale = r.i32();
  const unsigned levels = r.u8();
  const bool any_missing = r.u8() != 0;
  const bool has_missing_value = r.u8() != 0;
  const float missing_value = r.f32();
  if (dscale < -30 || dscale > 30 || bscale < 0 || bscale > 62 || levels > 32) {
    throw FormatError("grib2 bad scales");
  }
  if (any_missing && !has_missing_value) throw FormatError("grib2 bitmap without fill");

  const std::size_t n = shape.count();
  // The bitmap runs (set 0) and the coefficients (set 1) were written by
  // two encoders' models over one range coder.
  ResidualDecoder<2> dec(stream.subspan(r.position()));
  std::vector<std::uint8_t> valid;
  if (any_missing) valid = decode_validity_runs(dec, 0, n, "grib2 bitmap run overflow");
  std::vector<std::int64_t> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = static_cast<std::int64_t>(zigzag_decode(dec.decode(1)));
  }

  const Dims2 dims = to_dims2(shape);
  dwt53_inverse_2d(q, dims.rows, dims.cols, levels);

  const double step = std::ldexp(1.0, bscale) / std::pow(10.0, dscale);
  std::vector<float> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(lo + static_cast<double>(q[i]) * step);
  }
  if (any_missing) {
    for (std::size_t i = 0; i < n; ++i) {
      if (!valid[i]) out[i] = missing_value;
    }
  }
  return out;
}

int choose_decimal_scale(double min_value, double max_value, int significant_digits) {
  CESM_REQUIRE(significant_digits >= 1 && significant_digits <= 12);
  const double range = max_value - min_value;
  if (!(range > 0.0)) return significant_digits;
  const double d = static_cast<double>(significant_digits) - std::log10(range);
  return std::clamp(static_cast<int>(std::ceil(d)), -30, 30);
}

}  // namespace cesm::comp
