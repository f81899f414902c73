// Bitwise-equality suite for the streaming kernel front ends: for ANY
// partition of the input — aligned chunks, chunk sizes that do not divide
// the array, 1-element tails, single-element feeds — the finished stream
// accumulator must equal the one-shot kernel result bit for bit, because
// the out-of-core pipeline's verdict parity rests on exactly this
// property. Mask patterns deliberately span partition boundaries.

#include "stats/kernels.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "util/rng.h"

namespace cesm::stats::kernels {
namespace {

constexpr double kFloorRel = 3e-7;

std::vector<float> random_field(std::size_t n, std::uint64_t seed, float offset) {
  Pcg32 rng(seed);
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = offset + static_cast<float>(rng.uniform() * 40.0 - 20.0);
  }
  return v;
}

/// Mask with multi-element invalid runs placed to straddle both kBlock
/// boundaries and the test partitions (runs start at pseudo-random offsets
/// and extend 1..97 elements).
std::vector<std::uint8_t> boundary_mask(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint8_t> mask(n, 1);
  Pcg32 rng(seed);
  for (std::size_t start = 0; start < n;) {
    start += rng.bounded(2 * static_cast<std::uint32_t>(kBlock));
    const std::size_t len = 1 + rng.bounded(97);
    for (std::size_t i = start; i < std::min(n, start + len); ++i) mask[i] = 0;
    start += len;
  }
  return mask;
}

/// Cover: aligned, non-dividing, 1-element tails, tiny feeds, whole-array.
const std::size_t kPartitions[] = {1, 7, 1000, kBlock, kBlock + 1, 3 * kBlock, 100000};

/// Feed pieces of `piece` elements; `fn(lo, len, last)` gets last = true on
/// the final piece when `mark_last` is set (the stream's in-place tail).
template <typename Fn>
void for_each_piece(std::size_t n, std::size_t piece, bool mark_last, const Fn& fn) {
  for (std::size_t lo = 0; lo < n; lo += piece) {
    const std::size_t len = std::min(n, lo + piece) - lo;
    fn(lo, len, mark_last && lo + len == n);
  }
}

bool bits_equal(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

class StreamKernels : public ::testing::TestWithParam<bool> {};

TEST_P(StreamKernels, MomentStreamMatchesOneShotBitwise) {
  const bool masked = GetParam();
  const std::size_t n = 2 * kBlock + 1234;  // non-multiple of kBlock
  const std::vector<float> data = random_field(n, 0xa11ce5, 500.0f);
  const std::vector<std::uint8_t> mask =
      masked ? boundary_mask(n, 0xfeed) : std::vector<std::uint8_t>{};
  const MomentAccum oneshot = moments(data, mask);
  for (const bool mark_last : {false, true}) {
    for (std::size_t piece : kPartitions) {
      SCOPED_TRACE(mark_last ? "last feed marked" : "last feed unmarked");
      MomentStream stream(masked);
      for_each_piece(n, piece, mark_last, [&](std::size_t lo, std::size_t len, bool last) {
        stream.feed(std::span(data).subspan(lo, len),
                    masked ? std::span<const std::uint8_t>(mask).subspan(lo, len)
                           : std::span<const std::uint8_t>{},
                    last);
      });
      const MomentAccum got = stream.finish();
      EXPECT_TRUE(bits_equal(got.min, oneshot.min)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.max, oneshot.max)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.mean, oneshot.mean)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.m2, oneshot.m2)) << "piece=" << piece;
      EXPECT_EQ(got.count, oneshot.count) << "piece=" << piece;
    }
  }
}

TEST_P(StreamKernels, CoMomentStreamMatchesOneShotBitwise) {
  const bool masked = GetParam();
  const std::size_t n = 3 * kBlock - 17;
  const std::vector<float> x = random_field(n, 1, -3.0f);
  std::vector<float> y = x;
  Pcg32 rng(2);
  for (float& v : y) v += static_cast<float>(rng.uniform() * 0.01);
  const std::vector<std::uint8_t> mask =
      masked ? boundary_mask(n, 0xbead) : std::vector<std::uint8_t>{};
  const CoMomentAccum oneshot = comoments(x, y, mask);
  for (const bool mark_last : {false, true}) {
    for (std::size_t piece : kPartitions) {
      SCOPED_TRACE(mark_last ? "last feed marked" : "last feed unmarked");
      CoMomentStream stream(masked);
      for_each_piece(n, piece, mark_last, [&](std::size_t lo, std::size_t len, bool last) {
        stream.feed(std::span(x).subspan(lo, len), std::span(y).subspan(lo, len),
                    masked ? std::span<const std::uint8_t>(mask).subspan(lo, len)
                           : std::span<const std::uint8_t>{},
                    last);
      });
      const CoMomentAccum got = stream.finish();
      EXPECT_TRUE(bits_equal(got.mean_x, oneshot.mean_x)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.mean_y, oneshot.mean_y)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.sxx, oneshot.sxx)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.syy, oneshot.syy)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.sxy, oneshot.sxy)) << "piece=" << piece;
      EXPECT_EQ(got.count, oneshot.count) << "piece=" << piece;
    }
  }
}

TEST_P(StreamKernels, ErrorNormStreamMatchesOneShotBitwise) {
  const bool masked = GetParam();
  const std::size_t n = 2 * kBlock + kBlock / 3;
  const std::vector<float> orig = random_field(n, 3, 1.0e4f);
  std::vector<float> recon = orig;
  Pcg32 rng(4);
  for (float& v : recon) v += static_cast<float>(rng.uniform() * 0.5 - 0.25);
  const std::vector<std::uint8_t> mask =
      masked ? boundary_mask(n, 0xcafe) : std::vector<std::uint8_t>{};
  const ErrorAccum oneshot = error_norms(orig, recon, mask);
  for (const bool mark_last : {false, true}) {
    for (std::size_t piece : kPartitions) {
      SCOPED_TRACE(mark_last ? "last feed marked" : "last feed unmarked");
      ErrorNormStream stream(masked);
      for_each_piece(n, piece, mark_last, [&](std::size_t lo, std::size_t len, bool last) {
        stream.feed(std::span(orig).subspan(lo, len), std::span(recon).subspan(lo, len),
                    masked ? std::span<const std::uint8_t>(mask).subspan(lo, len)
                           : std::span<const std::uint8_t>{},
                    last);
      });
      const ErrorAccum got = stream.finish();
      EXPECT_TRUE(bits_equal(got.sum_sq, oneshot.sum_sq)) << "piece=" << piece;
      EXPECT_TRUE(bits_equal(got.max_abs, oneshot.max_abs)) << "piece=" << piece;
      EXPECT_EQ(got.count, oneshot.count) << "piece=" << piece;
    }
  }
}

TEST_P(StreamKernels, ZScoreStreamMatchesOneShotBitwise) {
  const bool masked = GetParam();
  const std::size_t n = 2 * kBlock + 999;
  const double members = 7.0;
  const std::vector<float> orig = random_field(n, 5, 250.0f);
  std::vector<float> data = orig;
  Pcg32 rng(6);
  for (float& v : data) v += static_cast<float>(rng.uniform() * 0.2 - 0.1);
  // Synthetic per-point sufficient stats: sums over a fake 7-member spread.
  std::vector<double> sum(n), sum_sq(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mu = static_cast<double>(orig[i]);
    sum[i] = mu * members + rng.uniform();
    sum_sq[i] = mu * mu * members + std::fabs(mu) * rng.uniform() + 1.0;
  }
  // Sprinkle degenerate-spread points so the floor_rel skip path is hit.
  for (std::size_t i = 0; i < n; i += 101) {
    const double mu = static_cast<double>(orig[i]);
    sum[i] = mu * members;
    sum_sq[i] = (sum[i] / members) * (sum[i] / members) * members;
  }
  const std::vector<std::uint8_t> mask =
      masked ? boundary_mask(n, 0xd00d) : std::vector<std::uint8_t>{};
  const ZScoreAccum oneshot = zscore_sums(data, orig, sum, sum_sq, mask, members, kFloorRel);
  ASSERT_GT(oneshot.used, 0u);
  for (const bool mark_last : {false, true}) {
    for (std::size_t piece : kPartitions) {
      SCOPED_TRACE(mark_last ? "last feed marked" : "last feed unmarked");
      ZScoreStream stream(members, kFloorRel, masked);
      for_each_piece(n, piece, mark_last, [&](std::size_t lo, std::size_t len, bool last) {
        stream.feed(std::span(data).subspan(lo, len), std::span(orig).subspan(lo, len),
                    std::span(sum).subspan(lo, len), std::span(sum_sq).subspan(lo, len),
                    masked ? std::span<const std::uint8_t>(mask).subspan(lo, len)
                           : std::span<const std::uint8_t>{},
                    last);
      });
      const ZScoreAccum got = stream.finish();
      EXPECT_TRUE(bits_equal(got.sum_z2, oneshot.sum_z2)) << "piece=" << piece;
      EXPECT_EQ(got.used, oneshot.used) << "piece=" << piece;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(MaskedAndDense, StreamKernels, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "masked" : "dense";
                         });

/// A masked stream fed an empty mask slice ("all valid here") must match
/// both the empty-mask one-shot call and the all-ones-mask one-shot call —
/// the all_valid fast path makes the three arithmetically identical.
TEST(StreamKernels, MaskedStreamAcceptsEmptySliceAsAllValid) {
  const std::size_t n = kBlock + 77;
  const std::vector<float> data = random_field(n, 7, 42.0f);
  const MomentAccum oneshot = moments(data);
  MomentStream stream(/*masked=*/true);
  stream.feed(std::span(data).first(100), {});
  std::vector<std::uint8_t> ones(n - 100, 1);
  stream.feed(std::span(data).subspan(100), ones);
  const MomentAccum got = stream.finish();
  EXPECT_TRUE(bits_equal(got.mean, oneshot.mean));
  EXPECT_TRUE(bits_equal(got.m2, oneshot.m2));
  EXPECT_EQ(got.count, oneshot.count);
}

/// All-invalid input: streams must finish to the same empty accumulators.
TEST(StreamKernels, AllMaskedFinishesEmpty) {
  const std::size_t n = kBlock / 2;
  const std::vector<float> data = random_field(n, 8, 0.0f);
  const std::vector<std::uint8_t> mask(n, 0);
  MomentStream ms(true);
  ms.feed(data, mask);
  EXPECT_EQ(ms.finish().count, 0u);
  ErrorNormStream es(true);
  es.feed(data, data, mask);
  const ErrorAccum ea = es.finish();
  EXPECT_EQ(ea.count, 0u);
  EXPECT_EQ(ea.sum_sq, 0.0);
}

}  // namespace
}  // namespace cesm::stats::kernels
