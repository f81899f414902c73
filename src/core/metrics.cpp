#include "core/metrics.h"

#include <cmath>
#include <limits>

#include "compress/deflate/deflate.h"
#include "stats/correlation.h"
#include "stats/kernels.h"
#include "util/error.h"

namespace cesm::core {

Characterization characterize(const climate::Field& field) {
  Characterization c;
  const std::vector<std::uint8_t> mask = field.valid_mask();
  c.summary = stats::summarize(std::span<const float>(field.data), mask);
  const Bytes stream = comp::DeflateCodec().encode(field.data, field.shape);
  c.lossless_cr = comp::compression_ratio(stream.size(), field.data.size());
  return c;
}

ErrorMetrics compare_fields(std::span<const float> original,
                            std::span<const float> reconstructed,
                            std::span<const std::uint8_t> valid_mask,
                            std::optional<double> range) {
  CESM_REQUIRE(original.size() == reconstructed.size());
  CESM_REQUIRE(valid_mask.empty() || valid_mask.size() == original.size());

  const stats::kernels::ErrorAccum err =
      stats::kernels::error_norms(original, reconstructed, valid_mask);
  if (err.count == 0) {
    ErrorMetrics m;
    m.e_max = err.max_abs;
    return m;
  }

  double r = 0.0;
  double peak = 0.0;
  if (range) {
    r = *range;
  } else {
    const stats::Summary s = stats::summarize(original, valid_mask);
    r = s.range();
    peak = std::max(std::fabs(s.min), std::fabs(s.max));
  }
  return error_metrics_from(err, r, peak,
                            stats::pearson(original, reconstructed, valid_mask));
}

ErrorMetrics error_metrics_from(const stats::kernels::ErrorAccum& err, double range,
                                double peak, double pearson) {
  ErrorMetrics m;
  m.e_max = err.max_abs;
  m.points = err.count;
  if (m.points == 0) return m;
  m.rmse = std::sqrt(err.sum_sq / static_cast<double>(m.points));
  if (range > 0.0) {
    m.e_nmax = m.e_max / range;
    m.nrmse = m.rmse / range;
  } else {
    // Constant field: exact reconstruction gives zero errors; otherwise
    // report unnormalized magnitudes (range normalization is undefined).
    m.e_nmax = m.e_max;
    m.nrmse = m.rmse;
  }
  m.psnr = m.rmse > 0.0 && peak > 0.0
               ? 20.0 * std::log10(peak / m.rmse)
               : std::numeric_limits<double>::infinity();
  m.pearson = pearson;
  return m;
}

ErrorMetrics compare_fields(const climate::Field& original,
                            std::span<const float> reconstructed) {
  const std::vector<std::uint8_t> mask = original.valid_mask();
  return compare_fields(original.data, reconstructed, mask);
}

}  // namespace cesm::core
