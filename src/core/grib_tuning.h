#pragma once
// RMSZ-guided choice of the GRIB2 decimal scale factor D (§5.4).
//
// The paper reports that one global D gave "quite poor" results, a
// magnitude-based per-variable D improved matters, and competitive results
// required using the RMSZ ensemble test itself to pick D. This module
// implements that ladder: start from the magnitude heuristic and increase
// D (finer quantization, less compression) until a probe member passes the
// RMSZ and E_nmax acceptance rules — or the search gives up.

#include <optional>

#include "core/pvt.h"

namespace cesm::core {

struct GribTuning {
  int decimal_scale = 0;   ///< chosen D
  bool passed = false;     ///< probe member passed at this D
  int attempts = 0;        ///< D values tried
};

/// The §5.4 ladder on `verifier`'s ensemble: start from the magnitude
/// heuristic on the first test member's summary and raise D until every
/// member of `test_members` passes tests 1–3 (the bias sweep stays with
/// the caller).
GribTuning tune_decimal_scale(const PvtVerifier& verifier, std::optional<float> fill,
                              std::span<const std::size_t> test_members,
                              int significant_digits, int max_extra_digits);

/// Tune D for the variable held by `stats`. `fill` is forwarded to the
/// codec's native bitmap support. Nonzero `chunk_elems` measures every
/// attempt through a ChunkedCodec with that partition (see
/// SuiteConfig::chunk_elems).
GribTuning rmsz_guided_decimal_scale(const EnsembleStats& stats,
                                     std::optional<float> fill,
                                     std::span<const std::size_t> test_members,
                                     const PvtThresholds& thresholds = {},
                                     int significant_digits = 4,
                                     int max_extra_digits = 6,
                                     std::size_t chunk_elems = 0);

}  // namespace cesm::core
