#include "compress/grib2/wavelet.h"

#include <gtest/gtest.h>

#include <vector>

#include "support/codec_kernels_reference.h"
#include "util/rng.h"

namespace cesm::comp {
namespace {

TEST(Wavelet1d, PerfectReconstructionSmallSizes) {
  Pcg32 rng(9);
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 16u, 17u, 31u, 1024u}) {
    std::vector<std::int64_t> in(n), out(n), back(n);
    for (auto& v : in) v = static_cast<std::int64_t>(rng.next_u32() % 100000) - 50000;
    reference::dwt53_forward_1d(in, out);
    reference::dwt53_inverse_1d(out, back);
    EXPECT_EQ(back, in) << "n=" << n;
  }
}

TEST(Wavelet1d, SmoothSignalConcentratesInLowPass) {
  constexpr std::size_t kN = 256;
  std::vector<std::int64_t> in(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) in[i] = static_cast<std::int64_t>(i * 10);
  reference::dwt53_forward_1d(in, out);
  // High-pass half of a linear ramp is ~zero (5/3 predicts linears exactly
  // away from boundaries).
  std::int64_t hp_energy = 0;
  for (std::size_t i = kN / 2 + 1; i < kN - 1; ++i) hp_energy += std::abs(out[i]);
  EXPECT_EQ(hp_energy, 0);
}

class Wavelet2dSizes : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(Wavelet2dSizes, PerfectReconstruction) {
  const auto [rows, cols] = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(rows * 1000 + cols));
  std::vector<std::int64_t> data(rows * cols);
  for (auto& v : data) v = static_cast<std::int64_t>(rng.next_u32() % 2000000) - 1000000;
  const std::vector<std::int64_t> original = data;
  const unsigned levels = dwt53_forward_2d(data, rows, cols, 5);
  EXPECT_NE(data, original);  // transform actually did something
  dwt53_inverse_2d(data, rows, cols, levels);
  EXPECT_EQ(data, original);
}

INSTANTIATE_TEST_SUITE_P(
    SizesSweep, Wavelet2dSizes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 64},
                      std::pair<std::size_t, std::size_t>{8, 8},
                      std::pair<std::size_t, std::size_t>{3, 100},
                      std::pair<std::size_t, std::size_t>{30, 487},
                      std::pair<std::size_t, std::size_t>{17, 17},
                      std::pair<std::size_t, std::size_t>{64, 1},
                      std::pair<std::size_t, std::size_t>{101, 53}));

TEST(Wavelet2d, StopsBelowMinimumSide) {
  std::vector<std::int64_t> data(4 * 4, 7);
  const unsigned levels = dwt53_forward_2d(data, 4, 4, 5);
  EXPECT_EQ(levels, 0u);
  // With zero levels the data must be untouched.
  for (auto v : data) EXPECT_EQ(v, 7);
}

TEST(Wavelet2d, LevelCountReflectsEarlyStop) {
  std::vector<std::int64_t> data(8 * 8, 0);
  const unsigned levels = dwt53_forward_2d(data, 8, 8, 5);
  // 8 -> 4 after one level; both sides then < 8 so exactly one level runs.
  EXPECT_EQ(levels, 1u);
}

TEST(Wavelet1d, ConstantSignalStaysConstantLowPass) {
  std::vector<std::int64_t> in(64, 1000), out(64);
  reference::dwt53_forward_1d(in, out);
  for (std::size_t i = 32; i < 64; ++i) EXPECT_EQ(out[i], 0);  // d coefficients
  std::vector<std::int64_t> back(64);
  reference::dwt53_inverse_1d(out, back);
  EXPECT_EQ(back, in);
}

}  // namespace
}  // namespace cesm::comp
