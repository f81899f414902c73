#include "climate/lorenz.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "util/cache.h"

namespace cesm::climate {
namespace {

Lorenz96Spec fast_spec() {
  Lorenz96Spec spec;
  spec.k = 40;
  spec.spinup_steps = 400;
  spec.average_steps = 800;
  return spec;
}

TEST(Lorenz96, MemberMeansAreDeterministic) {
  const Lorenz96 model(fast_spec());
  const auto a = model.member_time_means(5);
  const auto b = model.member_time_means(5);
  EXPECT_EQ(a, b);
}

TEST(Lorenz96, TinyPerturbationFullyDecorrelatesMembers) {
  // The PVT premise: O(1e-14) IC differences produce completely different
  // trajectories (weather) with the same statistics (climate).
  const Lorenz96 model(fast_spec());
  const auto m1 = model.member_time_means(1);
  const auto m2 = model.member_time_means(2);
  double max_diff = 0.0;
  for (std::size_t i = 0; i < m1.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(m1[i] - m2[i]));
  }
  EXPECT_GT(max_diff, 1e-3);  // not bit-for-bit — chaos has amplified 1e-14
}

TEST(Lorenz96, MembersShareClimatology) {
  const Lorenz96 model(fast_spec());
  const auto& clim = model.climatology();
  // Every member's time means must sit within a few climatological sigmas.
  for (std::uint32_t m = 1; m <= 6; ++m) {
    const auto means = model.member_time_means(m);
    for (std::size_t i = 0; i < means.size(); ++i) {
      const double z = (means[i] - clim.mean[i]) / clim.stddev[i];
      EXPECT_LT(std::fabs(z), 8.0) << "member " << m << " component " << i;
    }
  }
}

TEST(Lorenz96, ClimatologyHasPositiveSpread) {
  const Lorenz96 model(fast_spec());
  for (double s : model.climatology().stddev) EXPECT_GT(s, 0.0);
}

TEST(Lorenz96, TimeMeansNearTheoreticalAttractorMean) {
  // For F = 8 the long-run mean of each component is ~2.3.
  const Lorenz96 model(fast_spec());
  const auto& clim = model.climatology();
  double avg = 0.0;
  for (double m : clim.mean) avg += m;
  avg /= static_cast<double>(clim.mean.size());
  EXPECT_NEAR(avg, 2.3, 0.5);
}

TEST(Lorenz96, MemberZeroIsUnperturbedBase) {
  const Lorenz96 model(fast_spec());
  const auto base = model.member_time_means(0);
  const auto again = model.member_time_means(0);
  EXPECT_EQ(base, again);
}

std::string hash_doubles(const std::vector<double>& v) {
  const std::uint64_t h = util::fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(double)});
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// Bit-exact pin of the latent trajectory at the production spec: the
// control-run climatology and the time means of three members. Every
// synthetic field is a function of these doubles, so a change in the
// integrator's arithmetic order would move every suite output. The
// constants were recorded before the tendency's neighbour wrap lost its
// integer modulo; only an intended change of the dynamics may update them.
TEST(Lorenz96, TrajectoryPinnedBitExactly) {
  const Lorenz96 model(Lorenz96Spec{});
  const std::vector<std::string> actual = {
      "mean:" + hash_doubles(model.climatology().mean),
      "stddev:" + hash_doubles(model.climatology().stddev),
      "m0:" + hash_doubles(model.member_time_means(0)),
      "m1:" + hash_doubles(model.member_time_means(1)),
      "m50:" + hash_doubles(model.member_time_means(50)),
  };
  const std::vector<std::string> expected = {
      "mean:042fbf2bc100cd57", "stddev:5958238a7281a865", "m0:532a11a49b2d83de",
      "m1:9edd83572789b745",   "m50:d7eaa998894ed3df",
  };
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace cesm::climate
