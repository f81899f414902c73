#include "core/grib_tuning.h"

#include <algorithm>

#include "compress/grib2/grib2.h"
#include "compress/variants.h"
#include "util/error.h"
#include "util/trace.h"

namespace cesm::core {

GribTuning tune_decimal_scale(const PvtVerifier& verifier, std::optional<float> fill,
                              std::span<const std::size_t> test_members,
                              int significant_digits, int max_extra_digits) {
  CESM_REQUIRE(!test_members.empty());
  CESM_REQUIRE(max_extra_digits >= 0);
  trace::Span span("grib.tune");
  // Magnitude-based starting point from the probe member's range.
  const stats::Summary& summary = verifier.stats().member_summary(test_members.front());
  const int d0 = comp::choose_decimal_scale(summary.min, summary.max, significant_digits);
  const comp::VariantRow& grib = comp::variant_row("GRIB2");

  GribTuning tuning;
  for (int extra = 0;; ++extra) {
    const int d = std::min(30, d0 + extra);
    // No D passed by the last rung: keep the finest attempted (the paper
    // likewise reports GRIB2 failures on large-range variables despite
    // tuning).
    const bool last = extra == max_extra_digits || d == 30;
    const comp::CodecPtr codec = grib.build(d, fill);
    ++tuning.attempts;
    trace::add(trace::Counter::kGribTuneAttempts);
    tuning.members = verifier.members_pass(*codec, test_members, /*early_skip=*/!last);
    tuning.decimal_scale = d;
    tuning.passed = tuning.members.size() == test_members.size() &&
                    std::all_of(tuning.members.begin(), tuning.members.end(),
                                [](const MemberEvaluation& e) { return e.passes(); });
    if (tuning.passed || last) return tuning;
  }
}

GribTuning rmsz_guided_decimal_scale(const EnsembleStats& stats,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds,
                                     int significant_digits,
                                     int max_extra_digits) {
  const PvtVerifier verifier(stats, thresholds);
  return tune_decimal_scale(verifier, fill, test_members, significant_digits,
                            max_extra_digits);
}

}  // namespace cesm::core
