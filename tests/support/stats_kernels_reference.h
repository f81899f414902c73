#pragma once
// The seed's scalar two-pass statistic loops, verbatim: the ground truth the
// fused kernels (stats/kernels.h) are held to by the ULP parity tests
// (tests/stats/test_kernels.cpp). Built into the test binary only.

#include <cstddef>
#include <cstdint>
#include <span>

#include "stats/kernels.h"

namespace cesm::stats::kernels::reference {

struct TwoPassSummary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double m2 = 0.0;  ///< Σ(x - mean)² from the second pass
  std::size_t count = 0;
};

TwoPassSummary summarize_two_pass(std::span<const float> data,
                                  std::span<const std::uint8_t> mask = {});

CoMomentAccum comoments_two_pass(std::span<const float> x, std::span<const float> y,
                                 std::span<const std::uint8_t> mask = {});

ErrorAccum error_norms_scalar(std::span<const float> original,
                              std::span<const float> reconstructed,
                              std::span<const std::uint8_t> mask = {});

ZScoreAccum zscore_sums_scalar(std::span<const float> data, std::span<const float> orig,
                               std::span<const double> sum,
                               std::span<const double> sum_sq,
                               std::span<const std::uint8_t> mask, double member_count,
                               double floor_rel);

}  // namespace cesm::stats::kernels::reference
