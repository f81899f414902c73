#include "climate/grid.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace cesm::climate {
namespace {

TEST(Grid, ReducedSpecDimensions) {
  const Grid grid(GridSpec::reduced());
  EXPECT_EQ(grid.columns(), 48u * 72u);
  EXPECT_EQ(grid.levels(), 8u);
}

TEST(Grid, PaperSpecApproximatesNe30) {
  const GridSpec spec = GridSpec::paper();
  // ne30 has 48,602 columns and 30 levels (§5.1); our lat-lon match is
  // within 0.2 %.
  EXPECT_NEAR(static_cast<double>(spec.columns()), 48602.0, 100.0);
  EXPECT_EQ(spec.nlev, 30u);
}

TEST(Grid, LatitudesAvoidPolesAndCoverRange) {
  const Grid grid(GridSpec{8, 16, 1});
  constexpr double half_pi = std::numbers::pi / 2.0;
  for (std::size_t c = 0; c < grid.columns(); ++c) {
    EXPECT_GT(grid.latitude(c), -half_pi);
    EXPECT_LT(grid.latitude(c), half_pi);
  }
  EXPECT_LT(grid.latitude(0), 0.0);                       // southern row first
  EXPECT_GT(grid.latitude(grid.columns() - 1), 0.0);      // northern row last
}

TEST(Grid, LongitudesWrapOnceAroundGlobe) {
  const Grid grid(GridSpec{4, 8, 1});
  EXPECT_DOUBLE_EQ(grid.longitude(0), 0.0);
  EXPECT_LT(grid.longitude(7), 2.0 * std::numbers::pi);
}

TEST(Grid, AreaWeightsNormalizedAndPolarSmaller) {
  const Grid grid(GridSpec{16, 32, 1});
  const auto& w = grid.area_weights();
  double total = 0.0;
  for (double x : w) total += x;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // A polar-row column weighs less than an equatorial one.
  EXPECT_LT(w[0], w[grid.columns() / 2]);
}

TEST(Grid, LevelFractionSpansZeroToOne) {
  const Grid grid(GridSpec{4, 4, 10});
  EXPECT_DOUBLE_EQ(grid.level_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(grid.level_fraction(9), 1.0);
  EXPECT_THROW((void)grid.level_fraction(10), InvalidArgument);
}

TEST(Grid, SingleLevelFractionIsMid) {
  const Grid grid(GridSpec{4, 4, 1});
  EXPECT_DOUBLE_EQ(grid.level_fraction(0), 0.5);
}

TEST(Grid, RejectsDegenerateSpecs) {
  EXPECT_THROW(Grid(GridSpec{0, 10, 1}), InvalidArgument);
  EXPECT_THROW(Grid(GridSpec{10, 2, 1}), InvalidArgument);
  EXPECT_THROW(Grid(GridSpec{10, 10, 0}), InvalidArgument);
}

}  // namespace
}  // namespace cesm::climate
