#include "compress/apax/apax.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "compress/bitio.h"
#include "compress/codec_kernels.h"
#include "util/failpoint.h"

namespace cesm::comp {

namespace {

constexpr std::uint32_t kApaxMagic = 0x31585041;  // "APX1"

// Per-block header layout (bits): zero flag (1) + filter flag (1) +
// f32 block scale (32) + mantissa width (6) [+ f32 seed when filtered].
// The exact-maxabs scale (instead of a power-of-two exponent) buys back
// up to one mantissa bit per sample.

struct BlockPlan {
  bool zero = false;
  bool derivative = false;
  float scale = 0.0f;    // block attenuator: max |sample| (rounded up)
  unsigned bits = 0;     // mantissa bits per sample
  float seed = 0.0f;     // first raw sample when derivative filtering
};

float block_scale(double maxabs) {
  // Round up so |sample| / scale never exceeds 1 after the f32 narrowing.
  float s = static_cast<float>(maxabs);
  while (static_cast<double>(s) < maxabs) s = std::nextafter(s, std::numeric_limits<float>::max());
  return s;
}

double block_maxabs(std::span<const double> v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

}  // namespace

ApaxCodec::ApaxCodec(bool fixed_rate, double ratio, unsigned quality_bits)
    : fixed_rate_(fixed_rate), ratio_(ratio), quality_bits_(quality_bits) {}

ApaxCodec ApaxCodec::fixed_rate(double ratio) {
  CESM_REQUIRE(ratio > 1.0 && ratio <= 32.0);
  return ApaxCodec(true, ratio, 0);
}

ApaxCodec ApaxCodec::fixed_quality(unsigned mantissa_bits) {
  CESM_REQUIRE(mantissa_bits >= 2 && mantissa_bits <= 30);
  return ApaxCodec(false, 0.0, mantissa_bits);
}

std::string ApaxCodec::name() const {
  if (fixed_rate_) {
    char buf[32];
    if (ratio_ == static_cast<double>(static_cast<int>(ratio_))) {
      std::snprintf(buf, sizeof(buf), "APAX-%d", static_cast<int>(ratio_));
    } else {
      std::snprintf(buf, sizeof(buf), "APAX-%.1f", ratio_);
    }
    return buf;
  }
  return "APAX-q" + std::to_string(quality_bits_);
}

Bytes ApaxCodec::encode(std::span<const float> data, const Shape& shape) const {
  CESM_REQUIRE(shape.count() == data.size());
  // Mirror decode()'s header checks so encode can never emit a stream its
  // own decoder rejects (the factories validate too; this guards against
  // future constructors or member tweaks reaching the wire unchecked).
  CESM_REQUIRE(block_ > 0 && block_ <= (1u << 20));
  if (fixed_rate_) CESM_REQUIRE(ratio_ > 1.0 && ratio_ <= 32.0);
  Bytes out;
  ByteWriter w(out);
  wire::write_header(w, kApaxMagic, shape);
  w.u8(fixed_rate_ ? 1 : 0);
  w.f64(ratio_);
  w.u8(static_cast<std::uint8_t>(quality_bits_));
  w.u32(static_cast<std::uint32_t>(block_));

  BitWriter bw(out);
  const std::size_t n = data.size();
  const double rate_bits = fixed_rate_ ? 32.0 / ratio_ : 0.0;

  std::vector<double> raw(block_), delta(block_);
  std::vector<std::uint32_t> codes(block_);
  for (std::size_t lo = 0; lo < n; lo += block_) {
    const std::size_t len = std::min(block_, n - lo);
    raw.resize(len);
    delta.resize(len);
    for (std::size_t i = 0; i < len; ++i) raw[i] = static_cast<double>(data[lo + i]);
    delta[0] = 0.0;
    for (std::size_t i = 1; i < len; ++i) delta[i] = raw[i] - raw[i - 1];

    const double max_raw = block_maxabs(raw);
    // Derivative pre-filter pays when the block is smooth: compare the
    // dynamic range the mantissas must cover (first sample travels as an
    // exact f32 seed, so it is excluded).
    const double max_delta =
        len > 1 ? block_maxabs(std::span<const double>(delta).subspan(1)) : max_raw;

    BlockPlan plan;
    plan.zero = max_raw == 0.0;
    plan.derivative = !plan.zero && len > 1 && max_delta < 0.5 * max_raw;
    plan.seed = data[lo];
    const double maxabs = plan.derivative ? max_delta : max_raw;
    plan.scale = block_scale(maxabs);
    // An infinite sample makes the block scale infinite, and decode()
    // rejects non-finite scales ("apax bad block scale") — refuse here
    // rather than emit a stream our own decoder cannot read. NaN samples
    // do not reach the scale (fabs ordering drops them) and quantize to
    // the zero code, so they stay encodable.
    if (!std::isfinite(plan.scale)) {
      throw InvalidArgument("apax cannot encode infinite data");
    }

    const std::size_t bits_before = bw.bit_count();
    const unsigned header_bits = 1 + 1 + 32 + 6 + (plan.derivative ? 32 : 0);
    const std::size_t mantissa_count = plan.derivative ? len - 1 : len;
    std::size_t budget_bits = 0;
    std::size_t extra = 0;  // leading samples carrying one extra bit
    if (fixed_rate_) {
      budget_bits = static_cast<std::size_t>(std::llround(rate_bits * static_cast<double>(len)));
      const std::size_t payload = budget_bits > header_bits ? budget_bits - header_bits : 0;
      plan.bits = static_cast<unsigned>(std::min<std::size_t>(30, payload / mantissa_count));
      if (plan.bits < 30) {
        extra = std::min(mantissa_count, payload - plan.bits * mantissa_count);
      }
    } else {
      plan.bits = quality_bits_;
    }

    bw.put_bit(plan.zero);
    bw.put_bit(plan.derivative);
    bw.put(std::bit_cast<std::uint32_t>(plan.scale), 32);
    bw.put(plan.bits, 6);
    if (plan.derivative) bw.put(std::bit_cast<std::uint32_t>(plan.seed), 32);

    if (!plan.zero && plan.bits > 0) {
      const double scale = static_cast<double>(plan.scale);
      const std::span<const double> src(plan.derivative ? delta : raw);
      const std::size_t first = plan.derivative ? 1 : 0;
      // Attenuate the whole block branch-free, then pack: the bit widths
      // only change once (after the first `extra` samples).
      kernels::apax_quantize(src.data(), first, len, scale, plan.bits, extra,
                             codes.data());
      for (std::size_t i = first; i < len; ++i) {
        const unsigned b = plan.bits + ((i - first) < extra ? 1 : 0);
        bw.put(codes[i - first], b);
      }
    }

    if (fixed_rate_) {
      // Pad to the exact block budget so the advertised rate is honored
      // even for zero or low-entropy blocks.
      std::size_t used = bw.bit_count() - bits_before;
      while (used < budget_bits) {
        const unsigned chunk = static_cast<unsigned>(std::min<std::size_t>(32, budget_bits - used));
        bw.put(0, chunk);
        used += chunk;
      }
    }
  }
  bw.align();
  return out;
}

std::vector<float> ApaxCodec::decode(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("apax.decode");
  ByteReader r(stream);
  const Shape shape = wire::read_header(r, kApaxMagic);
  const bool fixed_rate = r.u8() != 0;
  const double ratio = r.f64();
  const unsigned quality_bits = r.u8();
  const std::size_t block = r.u32();
  if (block == 0 || block > (1u << 20)) throw FormatError("apax bad block size");
  if (fixed_rate && (ratio <= 1.0 || ratio > 32.0)) throw FormatError("apax bad ratio");

  BitReader br(stream.subspan(r.position()));
  const std::size_t n = shape.count();
  std::vector<float> out(n);
  const double rate_bits = fixed_rate ? 32.0 / ratio : 0.0;
  (void)quality_bits;

  for (std::size_t lo = 0; lo < n; lo += block) {
    const std::size_t len = std::min(block, n - lo);
    const std::size_t bits_before = br.bits_consumed();

    const bool zero = br.get_bit();
    const bool derivative = br.get_bit();
    const float scale_f = std::bit_cast<float>(static_cast<std::uint32_t>(br.get(32)));
    const unsigned bits = static_cast<unsigned>(br.get(6));
    if (bits > 30) throw FormatError("apax mantissa width out of range");
    if (!(scale_f >= 0.0f) || !std::isfinite(scale_f)) {
      throw FormatError("apax bad block scale");
    }
    float seed = 0.0f;
    if (derivative) seed = std::bit_cast<float>(static_cast<std::uint32_t>(br.get(32)));

    // Recompute the encoder's remainder-bit allocation.
    const unsigned header_bits = 1 + 1 + 32 + 6 + (derivative ? 32 : 0);
    const std::size_t mantissa_count = derivative ? len - 1 : len;
    std::size_t extra = 0;
    std::size_t budget_bits = 0;
    if (fixed_rate) {
      budget_bits =
          static_cast<std::size_t>(std::llround(rate_bits * static_cast<double>(len)));
      const std::size_t payload = budget_bits > header_bits ? budget_bits - header_bits : 0;
      const auto expected =
          static_cast<unsigned>(std::min<std::size_t>(30, payload / mantissa_count));
      if (expected < 30) extra = payload - expected * mantissa_count;
    }

    if (zero || bits == 0) {
      // Degenerate block: all zeros (or no mantissa budget: decode as the
      // seed-extended flat line).
      float fill = derivative ? seed : 0.0f;
      for (std::size_t i = 0; i < len; ++i) out[lo + i] = zero ? 0.0f : fill;
    } else {
      const double scale = static_cast<double>(scale_f);
      double acc = static_cast<double>(seed);
      const std::size_t first = derivative ? 1 : 0;
      if (derivative) out[lo] = seed;
      for (std::size_t i = first; i < len; ++i) {
        const unsigned b = bits + ((i - first) < extra ? 1 : 0);
        const double q = static_cast<double>((1u << (b - 1)) - 1);
        const auto limit = static_cast<std::int32_t>(q);
        const auto m = static_cast<std::int32_t>(br.get(b)) - limit;
        const double v = static_cast<double>(m) / q * scale;
        if (derivative) {
          acc += v;
          out[lo + i] = static_cast<float>(acc);
        } else {
          out[lo + i] = static_cast<float>(v);
        }
      }
    }

    if (fixed_rate) {
      std::size_t used = br.bits_consumed() - bits_before;
      while (used < budget_bits) {
        const unsigned chunk = static_cast<unsigned>(std::min<std::size_t>(32, budget_bits - used));
        br.get(chunk);
        used += chunk;
      }
    }
  }
  return out;
}

}  // namespace cesm::comp
