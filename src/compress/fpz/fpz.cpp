#include "compress/fpz/fpz.h"

#include <algorithm>
#include <vector>

#include "compress/codec_kernels.h"
#include "compress/fpz/predictor.h"
#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "util/failpoint.h"

namespace cesm::comp {

namespace {

constexpr std::uint32_t kFpzMagic = 0x325a5046;  // "FPZ2"

struct Dims3 {
  std::size_t planes = 1, rows = 1, cols = 1;
};

Dims3 to_dims3(const Shape& shape) {
  Dims3 d;
  switch (shape.rank()) {
    case 1:
      d.cols = shape.dims[0];
      break;
    case 2:
      d.rows = shape.dims[0];
      d.cols = shape.dims[1];
      break;
    case 3:
      d.planes = shape.dims[0];
      d.rows = shape.dims[1];
      d.cols = shape.dims[2];
      break;
    default:
      throw InvalidArgument("fpzip supports rank 1..3");
  }
  return d;
}

// Kernel shims keyed on element width (codec_kernels.h is not templated).
inline void ordered_from(const float* s, std::uint32_t* d, std::size_t n, unsigned sh) {
  kernels::ordered_from_f32(s, d, n, sh);
}
inline void ordered_from(const double* s, std::uint64_t* d, std::size_t n, unsigned sh) {
  kernels::ordered_from_f64(s, d, n, sh);
}
inline void from_ordered(const std::uint32_t* q, float* d, std::size_t n, unsigned sh,
                         std::uint32_t half) {
  kernels::f32_from_ordered(q, d, n, sh, half);
}
inline void from_ordered(const std::uint64_t* q, double* d, std::size_t n, unsigned sh,
                         std::uint64_t half) {
  kernels::f64_from_ordered(q, d, n, sh, half);
}
inline void lorenzo_residuals(const std::uint32_t* q, std::uint32_t* zz,
                              kernels::Dims d) {
  kernels::lorenzo_residuals_u32(q, zz, d);
}
inline void lorenzo_residuals(const std::uint64_t* q, std::uint64_t* zz,
                              kernels::Dims d) {
  kernels::lorenzo_residuals_u64(q, zz, d);
}
inline void lorenzo_reconstruct(std::uint32_t* q, const std::uint32_t* zz,
                                kernels::Dims d) {
  kernels::lorenzo_reconstruct_u32(q, zz, d);
}
inline void lorenzo_reconstruct(std::uint64_t* q, const std::uint64_t* zz,
                                kernels::Dims d) {
  kernels::lorenzo_reconstruct_u64(q, zz, d);
}

kernels::Dims to_kernel_dims(const Dims3& d) { return {d.planes, d.rows, d.cols}; }

template <typename U, typename T>
Bytes fpz_encode_impl(std::span<const T> data, const Shape& shape, unsigned prec) {
  CESM_REQUIRE(shape.count() == data.size());
  constexpr unsigned kTotalBits = sizeof(U) * 8;
  CESM_REQUIRE(prec >= 8 && prec <= kTotalBits && prec % 8 == 0);
  const unsigned shift = kTotalBits - prec;

  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, kFpzMagic, shape);
  w.u8(static_cast<std::uint8_t>(prec));
  w.u8(sizeof(T));

  const Dims3 d = to_dims3(shape);
  std::vector<U> q(data.size());
  ordered_from(data.data(), q.data(), data.size(), shift);

  // Residual formation is a batch kernel; the entropy coder then runs over
  // a flat zig-zag buffer with no per-element index arithmetic.
  std::vector<U> zz(data.size());
  if (!q.empty()) lorenzo_residuals(q.data(), zz.data(), to_kernel_dims(d));

  RangeEncoder enc(out);
  ResidualEncoder coder;
  for (std::size_t i = 0; i < zz.size(); ++i) {
    coder.encode(enc, zz[i]);
  }
  enc.finish();
  coder.tally().add_to_counters();
  return out;
}

template <typename U, typename T>
std::vector<T> fpz_decode_impl(std::span<const std::uint8_t> stream) {
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kFpzMagic);
  const unsigned prec = r.u8();
  const std::size_t elem = r.u8();
  if (elem != sizeof(T)) throw FormatError("fpz element size mismatch");
  constexpr unsigned kTotalBits = sizeof(U) * 8;
  if (prec < 8 || prec > kTotalBits || prec % 8 != 0) throw FormatError("fpz bad precision");
  const unsigned shift = kTotalBits - prec;

  const std::size_t n = shape.count();
  const Dims3 d = to_dims3(shape);

  // Decode every residual symbol first (the adaptive models never consult
  // reconstructed values), then invert the Lorenzo transform as one batch.
  std::vector<U> zz(n);
  ResidualDecoder<> dec(stream.subspan(r.position()));
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t z = dec.decode();
    if constexpr (kTotalBits < 64) {
      if ((z >> kTotalBits) != 0) throw FormatError("fpz residual out of range");
    }
    zz[i] = static_cast<U>(z);
  }

  std::vector<U> q(n);
  if (n > 0) lorenzo_reconstruct(q.data(), zz.data(), to_kernel_dims(d));

  std::vector<T> data(n);
  const U half = shift > 0 ? (U{1} << (shift - 1)) : U{0};
  // Re-centre within the truncated bin to halve the worst-case error.
  from_ordered(q.data(), data.data(), n, shift, half);
  return data;
}

}  // namespace

FpzCodec::FpzCodec(unsigned precision_bits) : precision_bits_(precision_bits) {
  CESM_REQUIRE(precision_bits >= 8 && precision_bits <= 64 && precision_bits % 8 == 0);
}

std::string FpzCodec::name() const {
  return "fpzip-" + std::to_string(precision_bits_);
}

Bytes FpzCodec::encode(std::span<const float> data, const Shape& shape) const {
  CESM_REQUIRE(precision_bits_ <= 32);
  return fpz_encode_impl<std::uint32_t>(data, shape, precision_bits_);
}

std::vector<float> FpzCodec::decode(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("fpz.decode");
  return fpz_decode_impl<std::uint32_t, float>(stream);
}

Bytes FpzCodec::encode64(std::span<const double> data, const Shape& shape) const {
  return fpz_encode_impl<std::uint64_t>(data, shape, precision_bits_);
}

std::vector<double> FpzCodec::decode64(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("fpz.decode");
  return fpz_decode_impl<std::uint64_t, double>(stream);
}

}  // namespace cesm::comp
