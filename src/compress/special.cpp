#include "compress/special.h"

#include <bit>
#include <vector>

#include "compress/rangecoder.h"
#include "compress/residual.h"
#include "util/failpoint.h"

namespace cesm::comp {

namespace {
constexpr std::uint32_t kSpcMagic = 0x32435053;  // "SPC2"

// The wrapper's variant-invariant stage: the patched field, the complete
// stream prefix (magic + fill + RLE bitmap — none of it depends on the
// inner variant), and the inner codec's own plan over the patched data
// when it has one. APAX's three fixed-rate variants and fpzip's two lossy
// ones share the patch work even though their inner codecs are
// unplannable.
struct SpecialPlan final : PrepPlan {
  std::vector<float> patched;
  Bytes prefix;
  PrepPlanPtr inner;
};

}  // namespace

std::vector<std::uint8_t> patch_fill_values(std::span<float> data, float fill) {
  std::vector<std::uint8_t> valid(data.size(), 1);
  // First pass: mask and compute the mean of valid points (seed value for
  // leading fills).
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (data[i] == fill) {
      valid[i] = 0;
    } else {
      sum += static_cast<double>(data[i]);
      ++count;
    }
  }
  float last = count ? static_cast<float>(sum / static_cast<double>(count)) : 0.0f;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (valid[i]) {
      last = data[i];
    } else {
      data[i] = last;
    }
  }
  return valid;
}

SpecialValueCodec::SpecialValueCodec(CodecPtr inner, float fill_value)
    : inner_(std::move(inner)), fill_(fill_value) {
  CESM_REQUIRE(inner_ != nullptr);
}

namespace {

/// Emit the wrapper's stream prefix: magic, fill, and (when any point was
/// patched) the run-length-coded validity bitmap.
Bytes make_prefix(float fill, std::span<const std::uint8_t> valid) {
  bool any_missing = false;
  for (std::uint8_t v : valid) {
    if (!v) {
      any_missing = true;
      break;
    }
  }

  Bytes out;
  ByteWriter w(out);
  w.u32(kSpcMagic);
  w.f32(fill);
  w.u8(any_missing ? 1 : 0);
  if (any_missing) {
    // Alternating run lengths starting with a (possibly empty) valid run,
    // range-coded like the GRIB2 bitmap.
    Bytes bitmap;
    RangeEncoder enc(bitmap);
    encode_validity_runs(enc, valid);
    enc.finish();
    w.u64(valid.size());
    w.u64(bitmap.size());
    w.raw(bitmap);
  }
  return out;
}

}  // namespace

Bytes SpecialValueCodec::encode(std::span<const float> data, const Shape& shape) const {
  std::vector<float> patched(data.begin(), data.end());
  const std::vector<std::uint8_t> valid = patch_fill_values(patched, fill_);

  Bytes out = make_prefix(fill_, valid);
  ByteWriter w(out);
  const Bytes inner_stream = inner_->encode(patched, shape);
  w.raw(inner_stream);
  return out;
}

std::string SpecialValueCodec::prep_key() const {
  std::string key = "spc:f" + std::to_string(std::bit_cast<std::uint32_t>(fill_));
  const std::string inner_key = inner_->prep_key();
  if (!inner_key.empty()) key += '+' + inner_key;
  // With an unplannable inner codec the plan still carries the patched
  // field and prefix, which every such wrapper produces identically for
  // the same fill — so the bare key is safely shared across them.
  return key;
}

PrepPlanPtr SpecialValueCodec::build_prep(std::span<const float> data,
                                          const Shape& shape) const {
  auto plan = std::make_shared<SpecialPlan>();
  plan->patched.assign(data.begin(), data.end());
  const std::vector<std::uint8_t> valid = patch_fill_values(plan->patched, fill_);
  plan->prefix = make_prefix(fill_, valid);
  if (!inner_->prep_key().empty()) {
    plan->inner = inner_->build_prep(plan->patched, shape);
  }
  return plan;
}

Bytes SpecialValueCodec::encode_with_prep(const PrepPlan& plan,
                                          std::span<const float> data,
                                          const Shape& shape) const {
  const auto* p = dynamic_cast<const SpecialPlan*>(&plan);
  CESM_REQUIRE(p != nullptr && p->patched.size() == data.size());
  Bytes out = p->prefix;
  ByteWriter w(out);
  const Bytes inner_stream =
      p->inner != nullptr ? inner_->encode_with_prep(*p->inner, p->patched, shape)
                          : inner_->encode(p->patched, shape);
  w.raw(inner_stream);
  return out;
}

std::vector<float> SpecialValueCodec::decode(std::span<const std::uint8_t> stream) const {
  CESM_FAILPOINT("special.decode");
  ByteReader r(stream);
  if (r.u32() != kSpcMagic) throw FormatError("bad special-value wrapper magic");
  const float fill = r.f32();
  const bool any_missing = r.u8() != 0;

  std::vector<std::uint8_t> valid;
  if (any_missing) {
    const std::uint64_t n = r.u64();
    if (n > comp::wire::kMaxDecodeElements) throw FormatError("implausible bitmap size");
    const std::uint64_t bitmap_size = r.u64();
    ResidualDecoder<> dec(r.raw(bitmap_size));
    valid = decode_validity_runs(dec, 0, n, "bitmap run overflow");
  }

  std::vector<float> data = inner_->decode(stream.subspan(r.position()));
  if (any_missing) {
    if (valid.size() != data.size()) throw FormatError("bitmap/payload size mismatch");
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (!valid[i]) data[i] = fill;
    }
  }
  return data;
}

}  // namespace cesm::comp
