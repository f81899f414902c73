#include "compress/grib2/wavelet.h"

#include <utility>
#include <vector>

#include "compress/codec_kernels.h"
#include "util/error.h"

namespace cesm::comp {

// The row/column sweeps are codec kernels (codec_kernels.h), which lift
// whole rows at a time.

unsigned dwt53_forward_2d(std::span<std::int64_t> data, std::size_t rows, std::size_t cols,
                          unsigned levels) {
  CESM_REQUIRE(data.size() == rows * cols);
  std::size_t r_lim = rows, c_lim = cols;
  unsigned applied = 0;
  for (unsigned l = 0; l < levels; ++l) {
    if (r_lim < 8 && c_lim < 8) break;
    if (c_lim >= 8) kernels::dwt53_rows(data.data(), cols, r_lim, c_lim, false);
    if (r_lim >= 8) kernels::dwt53_cols(data.data(), cols, r_lim, c_lim, false);
    if (c_lim >= 8) c_lim = (c_lim + 1) / 2;
    if (r_lim >= 8) r_lim = (r_lim + 1) / 2;
    ++applied;
  }
  return applied;
}

void dwt53_inverse_2d(std::span<std::int64_t> data, std::size_t rows, std::size_t cols,
                      unsigned levels) {
  CESM_REQUIRE(data.size() == rows * cols);
  // Recompute the ladder of (r_lim, c_lim) the forward pass visited.
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  std::size_t r_lim = rows, c_lim = cols;
  for (unsigned l = 0; l < levels; ++l) {
    stack.emplace_back(r_lim, c_lim);
    if (c_lim >= 8) c_lim = (c_lim + 1) / 2;
    if (r_lim >= 8) r_lim = (r_lim + 1) / 2;
  }
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    auto [rl, cl] = *it;
    if (rl >= 8) kernels::dwt53_cols(data.data(), cols, rl, cl, true);
    if (cl >= 8) kernels::dwt53_rows(data.data(), cols, rl, cl, true);
  }
}

}  // namespace cesm::comp
