#include "stats/histogram.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "util/error.h"

namespace cesm::stats {
namespace {

TEST(Histogram, CountsFallInCorrectBins) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(5.5);
  h.add(9.9);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 3u);
}

TEST(Histogram, OutOfRangeValuesClampToEdgeBins) {
  Histogram h(0.0, 1.0, 4);
  h.add(-100.0);
  h.add(100.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, UpperBoundLandsInLastBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(1.0);
  EXPECT_EQ(h.count(3), 1u);
}

TEST(Histogram, BinEdgesAreUniform) {
  Histogram h(2.0, 4.0, 4);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(0), 2.5);
  EXPECT_DOUBLE_EQ(h.bin_center(2), 3.25);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, FromDataSpansDataRange) {
  const std::vector<double> data = {1.0, 2.0, 3.0, 4.0};
  const Histogram h = Histogram::from_data(data, 3);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(2), 4.0);
}

TEST(Histogram, FromConstantDataDoesNotDivideByZero) {
  const std::vector<double> data = {5.0, 5.0, 5.0};
  const Histogram h = Histogram::from_data(data, 4);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(0), 3u);
}

TEST(Histogram, MaxCount) {
  Histogram h(0.0, 1.0, 2);
  h.add(0.1);
  h.add(0.2);
  h.add(0.9);
  EXPECT_EQ(h.max_count(), 2u);
}

TEST(Histogram, InfinitiesClampToEdgeBinsWithoutOverflow) {
  // Regression: casting the huge bin index of +inf (or any value far
  // above hi) to std::size_t was undefined behavior.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Histogram h(0.0, 1.0, 4);
  h.add(kInf);
  h.add(-kInf);
  h.add(1e300);  // finite but would overflow the index cast unclamped
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.bin_of(kInf), 3u);
  EXPECT_EQ(h.bin_of(-kInf), 0u);
  EXPECT_EQ(h.bin_of(1e300), 3u);
}

TEST(Histogram, NanIsRejectedAndCounted) {
  // Regression: NaN -> size_t was undefined behavior; now add() routes
  // NaN to the rejected() slot and bin_of() refuses it outright.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  Histogram h(0.0, 1.0, 4);
  h.add(kNan);
  h.add(0.5);
  std::vector<double> values = {kNan, 0.25, kNan};
  h.add(values);
  EXPECT_EQ(h.rejected(), 3u);
  EXPECT_EQ(h.total(), 2u);  // NaNs never land in a bin or the total
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_THROW((void)h.bin_of(kNan), InvalidArgument);
}

TEST(Histogram, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(2.0, 1.0, 4), InvalidArgument);
}

}  // namespace
}  // namespace cesm::stats
