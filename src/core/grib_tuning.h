#pragma once
// RMSZ-guided choice of the GRIB2 decimal scale factor D (§5.4).
//
// The paper reports that one global D gave "quite poor" results, a
// magnitude-based per-variable D improved matters, and competitive results
// required using the RMSZ ensemble test itself to pick D. This module
// implements that ladder: start from the magnitude heuristic and increase
// D (finer quantization, less compression) until every test member passes
// the ρ, RMSZ and E_nmax acceptance rules — or the search gives up.
//
// Each rung is the catalog's GRIB2 variant at that D, so the chosen rung's
// test-member evaluations are those of the exact codec the GRIB2 verdict
// names: the suite's verify takes them as known instead of measuring the
// same members again (PvtVerifier::verify_all).

#include <optional>
#include <vector>

#include "core/pvt.h"

namespace cesm::core {

struct GribTuning {
  int decimal_scale = 0;   ///< chosen D
  bool passed = false;     ///< every test member passed at this D
  int attempts = 0;        ///< D values tried
  /// Tests 1–3 of every test member at the chosen D, in test-member order.
  std::vector<MemberEvaluation> members;
};

/// The §5.4 ladder on `verifier`'s ensemble: start from the magnitude
/// heuristic on the first test member's summary and raise D, at most
/// `max_extra_digits` (>= 0) times, until every member of `test_members`
/// passes tests 1–3 (the bias sweep stays with the caller). The last rung
/// evaluates every member even when one fails, so a ladder that gives up
/// still ends with the full set at its finest D.
GribTuning tune_decimal_scale(const PvtVerifier& verifier, std::optional<float> fill,
                              std::span<const std::size_t> test_members,
                              int significant_digits, int max_extra_digits);

/// Tune D for the variable held by `stats`, whole members at a time.
/// `fill` is forwarded to the codec's native bitmap support.
GribTuning rmsz_guided_decimal_scale(const EnsembleStats& stats,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds = {},
                                     int significant_digits = 4,
                                     int max_extra_digits = 6);

}  // namespace cesm::core
