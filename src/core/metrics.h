#pragma once
// §4.1–4.2 metrics: characterization of the original data and
// original-vs-reconstructed error measures.

#include <optional>
#include <span>

#include "climate/field.h"
#include "compress/codec.h"
#include "stats/descriptive.h"
#include "stats/kernels.h"

namespace cesm::core {

/// Table 2 row: characteristics of one variable's dataset.
struct Characterization {
  stats::Summary summary;  ///< min / max / mean / stddev over valid points
  double lossless_cr = 1.0;  ///< NetCDF-4 (deflate) CR, paper eq. (1)
};

/// Characterize a field: §4.1. Fill values are excluded from the moments;
/// the lossless CR is measured with the NetCDF-4-style deflate codec.
Characterization characterize(const climate::Field& field);

/// §4.2 error measures between original and reconstructed data. Fill
/// values are excluded ("we are careful not to include any special
/// values when calculating our metrics").
struct ErrorMetrics {
  double e_max = 0.0;    ///< max absolute pointwise error
  double e_nmax = 0.0;   ///< eq. (2): e_max / R_X
  double rmse = 0.0;     ///< eq. (3)
  double nrmse = 0.0;    ///< eq. (4): rmse / R_X
  double psnr = 0.0;     ///< peak signal-to-noise ratio, dB (for reference)
  double pearson = 0.0;  ///< eq. (5)
  std::size_t points = 0;
};

/// Compute all §4.2 metrics. `range` (R_X) defaults to the original
/// data's own range over valid points.
ErrorMetrics compare_fields(std::span<const float> original,
                            std::span<const float> reconstructed,
                            std::span<const std::uint8_t> valid_mask = {},
                            std::optional<double> range = std::nullopt);

ErrorMetrics compare_fields(const climate::Field& original,
                            std::span<const float> reconstructed);

/// The exact finalization compare_fields() applies to an error-norm
/// accumulation: `range`/`peak` come from the original data's summary
/// (range = max - min, peak = max(|min|, |max|)), `pearson` from eq. (5).
/// Shared with the chunk-walking verifier, which builds the accumulation
/// chunk-by-chunk (stats::ErrorNormStream / CoMomentStream).
ErrorMetrics error_metrics_from(const stats::kernels::ErrorAccum& err, double range,
                                double peak, double pearson);

/// Acceptance threshold for the correlation test: the APAX profiler's
/// recommendation the paper adopts (§4.2).
inline constexpr double kPearsonThreshold = 0.99999;

}  // namespace cesm::core
