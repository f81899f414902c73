#pragma once
// Special/missing-value pre- and post-processing.
//
// Most methods in the study cannot represent CESM fill values such as the
// ocean model's 1e35 land points (Table 1: only GRIB2 has native support).
// The paper assumes this "could be handled through our pre- and
// post-processing" (§5.4) — this wrapper is that handling: fill locations
// are recorded in a run-length-coded bitmap, the gaps are filled with the
// last valid value (keeping the stream smooth for the inner predictor),
// the inner codec runs on the patched field, and decode restores the fill
// values verbatim.

#include "compress/codec.h"

namespace cesm::comp {

class SpecialValueCodec final : public Codec {
 public:
  SpecialValueCodec(CodecPtr inner, float fill_value);

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::string family() const override { return inner_->family(); }
  [[nodiscard]] bool is_lossless() const override { return inner_->is_lossless(); }

  [[nodiscard]] Capabilities capabilities() const override {
    Capabilities c = inner_->capabilities();
    c.special_values = true;  // provided by this wrapper
    return c;
  }

  [[nodiscard]] Bytes encode(std::span<const float> data, const Shape& shape) const override;
  [[nodiscard]] std::vector<float> decode(std::span<const std::uint8_t> stream) const override;

  /// Prep plan: patched field + bitmap prefix (inner-variant invariant),
  /// composed with the inner codec's own plan when it has one (codec.h).
  [[nodiscard]] std::string prep_key() const override;
  [[nodiscard]] PrepPlanPtr build_prep(std::span<const float> data,
                                       const Shape& shape) const override;
  [[nodiscard]] Bytes encode_with_prep(const PrepPlan& plan, std::span<const float> data,
                                       const Shape& shape) const override;

  [[nodiscard]] float fill_value() const { return fill_; }
  [[nodiscard]] const Codec& inner() const { return *inner_; }

 private:
  CodecPtr inner_;
  float fill_;
};

/// Replace every occurrence of `fill` with the most recent valid value
/// (the field mean when the series starts with fill). Returns the validity
/// mask; patches `data` in place.
std::vector<std::uint8_t> patch_fill_values(std::span<float> data, float fill);

}  // namespace cesm::comp
