#include "compress/isabela/isabela.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "compress/isabela/bspline.h"
#include "support/bspline_reference.h"
#include "support/generators.h"
#include "util/rng.h"
#include "util/trace.h"

namespace cesm::comp {
namespace {

std::vector<float> noisy_field(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i) {
    data[i] = static_cast<float>(std::sin(i * 0.003) * 40.0 + rng.uniform(-10.0, 10.0) + 60.0);
  }
  return data;
}

TEST(BSpline, FitsLineExactly) {
  std::vector<float> values(100);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = 2.0f * static_cast<float>(i) + 5.0f;
  const SplineBasis basis(values.size(), 8);
  const std::vector<double> coeffs = basis.fit(values);
  // Cubic B-splines reproduce linears exactly up to the stabilizing ridge
  // term, which perturbs at the ~1e-6 relative level.
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(basis.evaluate(coeffs.data(), i), values[i], 1e-4 * (1.0 + std::fabs(values[i])));
  }
}

TEST(BSpline, FitsSortedMonotoneCurveClosely) {
  Pcg32 rng(19);
  std::vector<float> values(1024);
  for (auto& v : values) v = static_cast<float>(rng.uniform(-100.0, 100.0));
  std::sort(values.begin(), values.end());
  const SplineBasis basis(values.size(), 32);
  const std::vector<double> coeffs = basis.fit(values);
  double worst = 0.0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    worst = std::max(worst, std::fabs(basis.evaluate(coeffs.data(), i) - values[i]));
  }
  // Sorted uniform noise is nearly linear; a 32-coefficient spline should
  // stay within a couple of percent of the 200-unit range.
  EXPECT_LT(worst, 5.0);
}

TEST(BSpline, CoefficientsRoundTripThroughConstructor) {
  // The decoder evaluates stored coefficients on a basis of its own: a
  // separately built basis of the same shape gives the same values.
  std::vector<float> values(50);
  for (std::size_t i = 0; i < values.size(); ++i) values[i] = static_cast<float>(i * i);
  const SplineBasis fitted(values.size(), 10);
  const std::vector<double> coeffs = fitted.fit(values);
  const SplineBasis rebuilt(values.size(), 10);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(fitted.evaluate(coeffs.data(), i), rebuilt.evaluate(coeffs.data(), i));
  }
}

TEST(SplineBasis, MatchesPerWindowFormulasBitwise) {
  // The basis precomputes what the per-window fit recomputed every call;
  // coefficients and estimates must be the very same doubles. The shapes
  // are the paper windows' (1024, 32), a shorter window with the same
  // count, and a tail window as short as its coefficient count.
  const struct { std::size_t n, ncoef; } shapes[] = {{1024, 32}, {384, 32}, {20, 20}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE("n=" + std::to_string(shape.n) + " ncoef=" + std::to_string(shape.ncoef));
    std::vector<float> values = testgen::smooth_field(shape.n, 0x5B + shape.n);
    std::sort(values.begin(), values.end());
    const SplineBasis basis(shape.n, shape.ncoef);
    const std::vector<double> coeffs = basis.fit(values);
    const reference::CubicBSpline ref = reference::CubicBSpline::fit(values, shape.ncoef);
    ASSERT_EQ(coeffs.size(), ref.coefficients().size());
    for (std::size_t j = 0; j < coeffs.size(); ++j) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(coeffs[j]),
                std::bit_cast<std::uint64_t>(ref.coefficients()[j]))
          << "coefficient " << j;
    }
    for (std::size_t i = 0; i < shape.n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(basis.evaluate(coeffs.data(), i)),
                std::bit_cast<std::uint64_t>(ref.evaluate(i)))
          << "sample " << i;
    }
  }
}

TEST(SplineBasis, SharedBasisIsBuiltOncePerShape) {
  // A shape no codec in this binary uses, so the first call builds it.
  trace::reset();
  const SplineBasis& a = SplineBasis::shared(977, 13);
  const SplineBasis& b = SplineBasis::shared(977, 13);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.sample_count(), 977u);
  EXPECT_EQ(a.coeff_count(), 13u);
  EXPECT_EQ(trace::counters().at("isabela.basis_built"), 1u);
  trace::reset();
}

TEST(SolveBandedSpd, SolvesKnownSystem) {
  // Tridiagonal SPD system: A = diag(2) with -1 off-diagonals (bandwidth 1
  // stored in the bandwidth-3 layout the spline fit uses).
  const std::size_t n = 5;
  Band band(n, {0.0, 0.0, 0.0, 0.0});
  for (std::size_t i = 0; i < n; ++i) {
    band[i][0] = 2.0;
    if (i + 1 < n) band[i][1] = -1.0;
  }
  std::vector<double> b = {1.0, 0.0, 0.0, 0.0, 1.0};
  ASSERT_TRUE(factor_banded_spd(band));
  solve_factored_banded(band, b);
  // Solution of this classic system is symmetric with x0 = x4 = 1, x2 = 1.
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[2], 1.0, 1e-12);
  EXPECT_NEAR(b[4], 1.0, 1e-12);
}

class IsabelaErrorBound : public ::testing::TestWithParam<double> {};

TEST_P(IsabelaErrorBound, RelativeErrorRespectsRequest) {
  const double eps_percent = GetParam();
  const IsabelaCodec codec(eps_percent);
  const auto data = noisy_field(5000, 20);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  // Guarantee analysis: reconstruction error <= eps/2 * max(|estimate|,
  // floor); with |estimate| within a factor ~2 of |x| this stays below
  // eps * |x| for all but degenerate tiny values. Allow 2x headroom.
  std::size_t violations = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double rel = std::fabs(data[i] - rt.reconstructed[i]) /
                       std::max(1e-6, std::fabs(static_cast<double>(data[i])));
    if (rel > 2.0 * eps_percent / 100.0) ++violations;
  }
  EXPECT_EQ(violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(PaperVariants, IsabelaErrorBound, ::testing::Values(1.0, 0.5, 0.1));

TEST(IsabelaCodec, TighterErrorCostsMoreBits) {
  const auto data = noisy_field(20000, 21);
  const RoundTrip loose = round_trip(IsabelaCodec(1.0), data, Shape::d1(data.size()));
  const RoundTrip tight = round_trip(IsabelaCodec(0.1), data, Shape::d1(data.size()));
  EXPECT_LT(loose.cr, tight.cr);
}

TEST(IsabelaCodec, VariantCrsAreClose) {
  // Paper: "the difference between the three ISABELA variants is small
  // [at single precision] because the sort index dominates".
  const auto data = noisy_field(20000, 22);
  const RoundTrip a = round_trip(IsabelaCodec(1.0), data, Shape::d1(data.size()));
  const RoundTrip b = round_trip(IsabelaCodec(0.1), data, Shape::d1(data.size()));
  EXPECT_LT(b.cr - a.cr, 0.25);
}

TEST(IsabelaCodec, HandlesShortTailWindow) {
  const auto data = noisy_field(1024 + 37, 23);  // final window is tiny
  const IsabelaCodec codec(0.5);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  EXPECT_EQ(rt.reconstructed.size(), data.size());
}

TEST(IsabelaCodec, HandlesConstantData) {
  std::vector<float> data(4096, 3.5f);
  const IsabelaCodec codec(0.5);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  for (float v : rt.reconstructed) EXPECT_NEAR(v, 3.5f, 3.5f * 0.005);
}

TEST(IsabelaCodec, HandlesAllZeroData) {
  std::vector<float> data(2048, 0.0f);
  const IsabelaCodec codec(1.0);
  const RoundTrip rt = round_trip(codec, data, Shape::d1(data.size()));
  for (float v : rt.reconstructed) EXPECT_EQ(v, 0.0f);
}

TEST(IsabelaCodec, DoublePathRoundTrips) {
  Pcg32 rng(24);
  std::vector<double> data(3000);
  for (auto& v : data) v = rng.uniform(10.0, 20.0);
  const IsabelaCodec codec(0.5);
  const Bytes stream = codec.encode64(data, Shape::d1(data.size()));
  const auto out = codec.decode64(stream);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(out[i], data[i], data[i] * 0.02);
  }
}

TEST(IsabelaCodec, DecodesAnotherShapesStreamBitIdentically) {
  // The decoder takes the window shape from the stream: a default codec
  // (1024, 32) reads a (256, 16) stream, tail window included, exactly as
  // its writer does.
  const auto data = noisy_field(3 * 256 + 100, 25);
  const IsabelaCodec writer(0.5, 256, 16);
  const Bytes stream = writer.encode(data, Shape::d1(data.size()));
  const std::vector<float> own = writer.decode(stream);
  const std::vector<float> other = IsabelaCodec(0.5).decode(stream);
  ASSERT_EQ(own.size(), other.size());
  for (std::size_t i = 0; i < own.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(own[i]), std::bit_cast<std::uint32_t>(other[i]))
        << "i=" << i;
  }
}

TEST(IsabelaCodec, ThrowsOnCorruptStream) {
  const IsabelaCodec codec(0.5);
  Bytes garbage(32, 0xcd);
  EXPECT_THROW(codec.decode(garbage), FormatError);
}

TEST(IsabelaCodec, RejectsNonFiniteInput) {
  // One special value would make its window's spline non-finite and decode
  // the whole window as NaN, so the float path, its plan stage and the
  // double path all refuse it, in a full window and in the tail.
  const IsabelaCodec codec(0.5);
  const std::vector<float> clean = noisy_field(2 * 1024 + 100, 26);
  const Shape shape = Shape::d1(clean.size());
  for (const double special : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{1500}, clean.size() - 1}) {
      SCOPED_TRACE(std::to_string(special) + " at " + std::to_string(at));
      std::vector<float> data = clean;
      data[at] = static_cast<float>(special);
      EXPECT_THROW((void)codec.encode(data, shape), InvalidArgument);
      EXPECT_THROW((void)codec.build_prep(data, shape), InvalidArgument);
      std::vector<double> wide(clean.begin(), clean.end());
      wide[at] = special;
      EXPECT_THROW((void)codec.encode64(wide, shape), InvalidArgument);
    }
  }
}

TEST(IsabelaCodec, RejectsBadParameters) {
  EXPECT_THROW(IsabelaCodec(0.0), InvalidArgument);
  EXPECT_THROW(IsabelaCodec(-1.0), InvalidArgument);
  EXPECT_THROW(IsabelaCodec(0.5, 4), InvalidArgument);  // window too small
}

TEST(IsabelaCodec, RejectsParametersItsOwnDecoderWouldReject) {
  // decode() throws FormatError for coefficients < 4; encoding with such a
  // count would produce a stream no decoder accepts, so construction must
  // refuse it up front.
  EXPECT_THROW(IsabelaCodec(0.5, 1024, 3), InvalidArgument);
  EXPECT_THROW(IsabelaCodec(0.5, 1024, 0), InvalidArgument);
  // The header stores the count as u16: 65536 would truncate to 0 on the
  // wire and decode as "bad parameters" even though encode() succeeded.
  EXPECT_THROW(IsabelaCodec(0.5, 1u << 20, 1u << 16), InvalidArgument);
  // The widest storable count still round-trips.
  const IsabelaCodec codec(0.5, 1u << 17, 0xffff);
  const auto data = noisy_field(300, 77);
  const Bytes stream = codec.encode(data, Shape::d1(data.size()));
  EXPECT_EQ(codec.decode(stream).size(), data.size());
}

TEST(IsabelaCodec, NamesMatchPaperTables) {
  EXPECT_EQ(IsabelaCodec(0.1).name(), "ISA-0.1");
  EXPECT_EQ(IsabelaCodec(0.5).name(), "ISA-0.5");
  EXPECT_EQ(IsabelaCodec(1.0).name(), "ISA-1.0");
}

}  // namespace
}  // namespace cesm::comp
