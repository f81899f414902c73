#include "climate/synthesis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "stats/descriptive.h"
#include "util/cache.h"

namespace cesm::climate {
namespace {

struct Fixture {
  Fixture() : grid(GridSpec{24, 36, 4}), model(make_spec()) {}

  static Lorenz96Spec make_spec() {
    Lorenz96Spec s;
    s.k = 64;
    s.spinup_steps = 300;
    s.average_steps = 600;
    return s;
  }

  Field make(const VariableSpec& var, std::uint32_t member) {
    const FieldSynthesizer synth(grid, var, model);
    return synth.synthesize(model.member_time_means(member), member);
  }

  Grid grid;
  Lorenz96 model;
};

VariableSpec linear_var() {
  VariableSpec v;
  v.name = "TESTLIN";
  v.is_3d = false;
  v.transform = TransformKind::kLinear;
  v.center = 100.0;
  v.scale = 10.0;
  v.stream = 1234;
  return v;
}

TEST(Synthesis, DeterministicPerMemberAndVariable) {
  Fixture f;
  const Field a = f.make(linear_var(), 3);
  const Field b = f.make(linear_var(), 3);
  EXPECT_EQ(a.data, b.data);
}

TEST(Synthesis, MembersDiffer) {
  Fixture f;
  const Field a = f.make(linear_var(), 1);
  const Field b = f.make(linear_var(), 2);
  EXPECT_NE(a.data, b.data);
}

TEST(Synthesis, LinearTransformHitsTargetMagnitude) {
  Fixture f;
  const Field field = f.make(linear_var(), 1);
  const auto s = stats::summarize(std::span<const float>(field.data));
  EXPECT_NEAR(s.mean, 100.0, 30.0);
  EXPECT_GT(s.stddev, 2.0);
  EXPECT_LT(s.stddev, 60.0);
}

TEST(Synthesis, PositiveTransformNeverNegative) {
  Fixture f;
  VariableSpec v = linear_var();
  v.name = "TESTPOS";
  v.transform = TransformKind::kPositive;
  v.center = 5.0;
  v.scale = 10.0;  // would frequently dip below zero if unclamped
  const Field field = f.make(v, 1);
  for (float x : field.data) EXPECT_GE(x, 0.0f);
}

TEST(Synthesis, LogNormalSpansDecades) {
  Fixture f;
  VariableSpec v = linear_var();
  v.name = "TESTLOG";
  v.transform = TransformKind::kLogNormal;
  v.log_mu = 0.0;
  v.log_sigma = 2.0;
  const Field field = f.make(v, 1);
  const auto s = stats::summarize(std::span<const float>(field.data));
  EXPECT_GT(s.min, 0.0);
  EXPECT_GT(s.max / s.min, 1e3);
}

TEST(Synthesis, BoundedTransformStaysInBounds) {
  Fixture f;
  VariableSpec v = linear_var();
  v.name = "TESTB";
  v.transform = TransformKind::kBounded01;
  v.bound_lo = 0.0;
  v.bound_hi = 100.0;
  const Field field = f.make(v, 2);
  for (float x : field.data) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 100.0f);
  }
}

TEST(Synthesis, ThreeDFieldsHaveVerticalStructure) {
  Fixture f;
  VariableSpec v = linear_var();
  v.name = "TESTZ";
  v.is_3d = true;
  v.vertical_gradient = 1000.0;
  const Field field = f.make(v, 1);
  ASSERT_EQ(field.shape.rank(), 2u);
  EXPECT_EQ(field.shape.dims[0], 4u);
  const std::size_t ncol = f.grid.columns();
  // Level 0 (top, level_fraction 0) carries the full vertical gradient.
  const auto top = stats::summarize(std::span<const float>(field.data.data(), ncol));
  const auto bottom =
      stats::summarize(std::span<const float>(field.data.data() + 3 * ncol, ncol));
  EXPECT_GT(top.mean, bottom.mean + 500.0);
}

TEST(Synthesis, FillVariablesCarryLandMask) {
  Fixture f;
  VariableSpec v = linear_var();
  v.name = "TESTFILL";
  v.has_fill = true;
  const Field field = f.make(v, 1);
  ASSERT_TRUE(field.fill.has_value());
  const auto mask = field.valid_mask();
  std::size_t land = 0;
  for (auto m : mask) {
    if (!m) ++land;
  }
  EXPECT_GT(land, mask.size() / 20);        // some land
  EXPECT_LT(land, mask.size() * 19 / 20);   // some ocean
  // Land mask must match the shared static mask.
  const auto expected = FieldSynthesizer::land_mask(f.grid);
  for (std::size_t c = 0; c < mask.size(); ++c) {
    EXPECT_EQ(mask[c] == 0, expected[c] == 1);
  }
}

TEST(Synthesis, SmoothnessControlsNeighbourCorrelation) {
  Fixture f;
  VariableSpec smooth = linear_var();
  smooth.name = "SMOOTH";
  smooth.smoothness = 3.0;
  smooth.noise_frac = 0.02;
  VariableSpec rough = linear_var();
  rough.name = "ROUGH";
  rough.smoothness = 0.8;
  rough.noise_frac = 0.45;

  const auto lag1_corr = [&](const Field& field) {
    double num = 0.0, den = 0.0, mean = 0.0;
    for (float x : field.data) mean += x;
    mean /= static_cast<double>(field.data.size());
    for (std::size_t i = 0; i + 1 < field.data.size(); ++i) {
      num += (field.data[i] - mean) * (field.data[i + 1] - mean);
      den += (field.data[i] - mean) * (field.data[i] - mean);
    }
    return num / den;
  };
  EXPECT_GT(lag1_corr(f.make(smooth, 1)), lag1_corr(f.make(rough, 1)));
}

// Bit-exact pin of EnsembleGenerator::field() and field_range() bytes: one
// variable of each transform, fill and non-fill, 2-D and 3-D, on the
// reduced grid, a small non-square grid and (one 2-D field) the paper grid,
// plus field_range slices that start mid-row, cross level boundaries or are
// empty. Every suite output is a function of these floats, so a change of
// the synthesis arithmetic or of the noise stream's consumption shows here
// first; only an intended change of the synthetic climate may update them.
std::string digest(std::span<const float> v) {
  const std::uint64_t h = util::fnv1a64(
      {reinterpret_cast<const std::uint8_t*>(v.data()), v.size() * sizeof(float)});
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

EnsembleGenerator pin_generator(const GridSpec& grid) {
  EnsembleSpec spec;
  spec.grid = grid;
  spec.members = 3;
  return EnsembleGenerator(spec);
}

std::string field_digest(const EnsembleGenerator& gen, const char* name,
                         std::uint32_t member) {
  return std::string(name) + ":" + digest(gen.field(name, member).data);
}

// Digest of field_range over [lo, hi), checked against the same slice of
// the whole field first.
std::string range_digest(const EnsembleGenerator& gen, const char* name,
                         std::uint32_t member, std::size_t lo, std::size_t hi) {
  const VariableSpec& var = gen.variable(name);
  std::vector<float> out(hi - lo);
  gen.field_range(var, member, lo, hi, out);
  const Field whole = gen.field(var, member);
  EXPECT_TRUE(std::equal(out.begin(), out.end(), whole.data.begin() + lo))
      << name << " [" << lo << ", " << hi << ")";
  return std::string(name) + "[" + std::to_string(lo) + "," + std::to_string(hi) +
         "):" + digest(out);
}

TEST(Synthesis, ReducedGridFieldsPinnedBitExactly) {
  const EnsembleGenerator gen = pin_generator(GridSpec::reduced());
  const std::size_t ncol = gen.grid().columns();  // 3,456 = 16 rows of 216
  const std::vector<std::string> actual = {
      field_digest(gen, "U", 0),       // 3-D linear
      field_digest(gen, "Q", 1),       // 3-D log-normal
      field_digest(gen, "CLOUD", 2),   // 3-D bounded
      field_digest(gen, "FSDSC", 1),   // 2-D positive
      field_digest(gen, "SST", 2),     // 2-D linear with fill
      field_digest(gen, "PRECT", 0),   // 2-D log-normal
      field_digest(gen, "CLDLOW", 1),  // 2-D bounded
      range_digest(gen, "U", 1, 100, 500),                         // mid-row start
      range_digest(gen, "U", 1, 2 * ncol - 300, 2 * ncol + 700),   // crosses a level
      range_digest(gen, "Q", 2, 3 * ncol + 217, 6 * ncol + 5),     // crosses three
      range_digest(gen, "SST", 0, 1000, 2500),                     // fill, mid-row
      range_digest(gen, "CLOUD", 0, 5000, 5000),                   // empty
  };
  const std::vector<std::string> expected = {
      "U:61367714577c9ae7",      "Q:f91879219320a2cc",     "CLOUD:340c22faacfcb678",
      "FSDSC:12d18b344bf9e20f",  "SST:f60502eadf761581",   "PRECT:0f6b5f89af7c66c8",
      "CLDLOW:8f346c3e3b9a87a3", "U[100,500):8d6c4b0fdb15c2da",
      "U[6612,7612):c8c07ff537c7f5be", "Q[10585,20741):20413b33543a7bfb",
      "SST[1000,2500):52919d80955b95d5", "CLOUD[5000,5000):cbf29ce484222325",
  };
  EXPECT_EQ(actual, expected);
}

TEST(Synthesis, NonSquareGridFieldsPinnedBitExactly) {
  const EnsembleGenerator gen = pin_generator(GridSpec{7, 13, 3});
  const std::size_t ncol = gen.grid().columns();  // 91 = 7 rows of 13
  const std::vector<std::string> actual = {
      field_digest(gen, "U", 1),
      field_digest(gen, "Q", 0),
      field_digest(gen, "CLOUD", 1),
      field_digest(gen, "FSDSC", 2),
      field_digest(gen, "SST", 1),
      field_digest(gen, "TAUX", 0),
      range_digest(gen, "U", 2, 5, 11),                  // inside one row
      range_digest(gen, "T", 0, ncol - 6, 2 * ncol + 3), // crosses two levels
      range_digest(gen, "TAUX", 1, 20, 77),              // fill, mid-row
      range_digest(gen, "U", 0, ncol, ncol),             // empty, on a boundary
  };
  const std::vector<std::string> expected = {
      "U:86c5d4035cf78b23",     "Q:98bc68d43be34a64",   "CLOUD:ce8070710c3b07c8",
      "FSDSC:d2c22101a0355ff5", "SST:c3134b8820311f1c", "TAUX:98c188565033373f",
      "U[5,11):2f37a29cf2fd9fd6",     "T[85,185):0ea1d2d026d453e7",
      "TAUX[20,77):ed230dc41f959fb5", "U[91,91):cbf29ce484222325",
  };
  EXPECT_EQ(actual, expected);
}

TEST(Synthesis, PaperGridSurfaceFieldPinnedBitExactly) {
  const EnsembleGenerator gen = pin_generator(GridSpec::paper());
  const std::vector<std::string> actual = {
      field_digest(gen, "SST", 1),
      range_digest(gen, "SST", 2, 20000, 20500),
  };
  const std::vector<std::string> expected = {
      "SST:921dc1408b098648",
      "SST[20000,20500):dcbe5638418407e0",
  };
  EXPECT_EQ(actual, expected);
}

}  // namespace
}  // namespace cesm::climate
