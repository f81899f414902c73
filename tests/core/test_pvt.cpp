#include "core/pvt.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <thread>

#include "compress/deflate/deflate.h"
#include "compress/fpz/fpz.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

/// Codec stub that injects a controlled distortion (for exercising the
/// acceptance logic without depending on real codec behaviour).
class DistortionCodec final : public comp::Codec {
 public:
  explicit DistortionCodec(float offset, float noise = 0.0f)
      : offset_(offset), noise_(noise) {}

  [[nodiscard]] std::string name() const override { return "distort"; }
  [[nodiscard]] std::string family() const override { return "test"; }
  [[nodiscard]] bool is_lossless() const override { return false; }
  [[nodiscard]] comp::Capabilities capabilities() const override { return {}; }

  [[nodiscard]] Bytes encode(std::span<const float> data,
                             const comp::Shape& shape) const override {
    Bytes out;
    ByteWriter w(out);
    comp::wire::write_header(w, 0x54534554, shape);
    Pcg32 rng(42);
    for (float v : data) {
      w.f32(v + offset_ + noise_ * static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
    return out;
  }

  [[nodiscard]] std::vector<float> decode(
      std::span<const std::uint8_t> stream) const override {
    ByteReader r(stream);
    const comp::Shape shape = comp::wire::read_header(r, 0x54534554);
    std::vector<float> data(shape.count());
    for (auto& v : data) v = r.f32();
    return data;
  }

 private:
  float offset_;
  float noise_;
};

std::vector<climate::Field> gaussian_members(std::size_t members, std::size_t n,
                                             std::uint64_t seed) {
  std::vector<climate::Field> fields(members);
  for (std::size_t m = 0; m < members; ++m) {
    NormalSampler rng(hash_combine(seed, m));
    fields[m].name = "X";
    fields[m].shape = comp::Shape::d1(n);
    fields[m].data.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      fields[m].data[i] = static_cast<float>(100.0 + std::sin(i * 0.05) * 20.0 + rng.next());
    }
  }
  return fields;
}

class PvtTest : public ::testing::Test {
 protected:
  PvtTest() : stats_(gaussian_members(21, 800, 0xfeed)), verifier_(stats_) {}

  EnsembleStats stats_;
  PvtVerifier verifier_;
  std::vector<std::size_t> members_{1, 7, 15};
};

TEST_F(PvtTest, LosslessCodecPassesEverything) {
  const comp::DeflateCodec codec;
  const VariableVerdict v = verifier_.verify(codec, members_);
  EXPECT_TRUE(v.rho_pass);
  EXPECT_TRUE(v.rmsz_pass);
  EXPECT_TRUE(v.enmax_pass);
  EXPECT_TRUE(v.bias_pass);
  EXPECT_TRUE(v.all_pass());
  for (const MemberEvaluation& e : v.members) {
    EXPECT_DOUBLE_EQ(e.rmsz_diff, 0.0);
    EXPECT_DOUBLE_EQ(e.metrics.e_max, 0.0);
  }
}

TEST_F(PvtTest, NearLosslessCodecPasses) {
  const comp::FpzCodec codec(24);
  const VariableVerdict v = verifier_.verify(codec, members_);
  EXPECT_TRUE(v.all_pass()) << "rho=" << v.rho_pass << " rmsz=" << v.rmsz_pass
                            << " enmax=" << v.enmax_pass << " bias=" << v.bias_pass;
}

TEST_F(PvtTest, LargeUniformShiftFailsRmsz) {
  // Shift of 3 sigma: RMSZ of the reconstructed member jumps ~3.
  const DistortionCodec codec(3.0f);
  const VariableVerdict v = verifier_.verify(codec, members_, /*run_bias=*/false);
  EXPECT_FALSE(v.rmsz_pass);
}

TEST_F(PvtTest, SmallShiftPassesRmszButMatchesEquation8) {
  const DistortionCodec codec(0.02f);  // 2% of sigma
  const MemberEvaluation e = verifier_.evaluate_member(codec, 3);
  EXPECT_LE(e.rmsz_diff, 0.1);
  EXPECT_TRUE(e.rmsz_in_distribution);
}

TEST_F(PvtTest, HeavyNoiseFailsRhoTest) {
  const DistortionCodec codec(0.0f, 15.0f);
  const MemberEvaluation e = verifier_.evaluate_member(codec, 5);
  EXPECT_LT(e.metrics.pearson, kPearsonThreshold);
  EXPECT_FALSE(e.rho_pass);
}

TEST_F(PvtTest, EnmaxTestComparesToEnsembleRange) {
  // The ensemble's own E_nmax spread is O(sigma/range); a pointwise error
  // far beyond it must fail eq. (11).
  const DistortionCodec codec(0.0f, 8.0f);
  const MemberEvaluation e = verifier_.evaluate_member(codec, 2);
  EXPECT_GT(e.enmax_ratio, 0.1);
  EXPECT_FALSE(e.enmax_pass);
}

TEST_F(PvtTest, ReconstructedRmszHasOneScorePerMember) {
  const comp::FpzCodec codec(32);
  const auto scores = verifier_.reconstructed_rmsz(codec);
  ASSERT_EQ(scores.size(), stats_.member_count());
  for (std::size_t m = 0; m < scores.size(); ++m) {
    EXPECT_DOUBLE_EQ(scores[m], stats_.rmsz(m));  // lossless => identical
  }
}

TEST_F(PvtTest, BiasSkippedWhenRequested) {
  const comp::FpzCodec codec(24);
  const VariableVerdict v = verifier_.verify(codec, members_, /*run_bias=*/false);
  EXPECT_FALSE(v.bias_evaluated);
  EXPECT_TRUE(v.bias_pass);  // not evaluated: no veto
}

TEST_F(PvtTest, ConcurrentCallsOnOneVerifierMatchSerialCalls) {
  // The verifier holds no mutable state: two threads verifying different
  // codecs on one verifier at once get exactly the verdicts of serial
  // calls.
  const comp::FpzCodec fpz16(16);
  const comp::FpzCodec fpz24(24);
  const VariableVerdict serial16 = verifier_.verify(fpz16, members_, /*run_bias=*/true);
  const VariableVerdict serial24 = verifier_.verify(fpz24, members_, /*run_bias=*/true);
  for (int round = 0; round < 4; ++round) {
    VariableVerdict v16;
    VariableVerdict v24;
    std::thread a([&] { v16 = verifier_.verify(fpz16, members_, /*run_bias=*/true); });
    std::thread b([&] { v24 = verifier_.verify(fpz24, members_, /*run_bias=*/true); });
    a.join();
    b.join();
    EXPECT_EQ(v16.bias.slope_distance, serial16.bias.slope_distance) << "round " << round;
    EXPECT_EQ(v16.mean_cr, serial16.mean_cr) << "round " << round;
    EXPECT_EQ(v24.bias.slope_distance, serial24.bias.slope_distance) << "round " << round;
    EXPECT_EQ(v24.mean_cr, serial24.mean_cr) << "round " << round;
  }
}

TEST_F(PvtTest, BiasSweepReusesTestMemberScoresWithoutRecompressing) {
  // Each verify(run_bias=true) must round-trip every member exactly once:
  // the bias sweep reuses the test members' reconstructed RMSZ from
  // evaluate_member instead of compressing them a second time. Counted
  // two independent ways — the pvt.member_roundtrips trace counter and
  // the fpz.decode failpoint hit count (armed with prob:0.0 so it counts
  // without ever firing).
  const comp::FpzCodec codec(24);
  (void)verifier_.verify(codec, members_, /*run_bias=*/true);

  fail::reset();
  fail::ScopedFailpoint count_decodes("fpz.decode",
                                      fail::Trigger::with_probability(0.0));
  trace::set_enabled(true);
  trace::reset();
  (void)verifier_.verify(codec, members_, /*run_bias=*/true);
  const auto counters = trace::counters();
  trace::set_enabled(false);
  const std::uint64_t decodes = fail::hit_count("fpz.decode");
  fail::reset();

  const std::uint64_t member_count = stats_.member_count();  // 21
  EXPECT_EQ(counters.at("pvt.member_roundtrips"), member_count)
      << "expected one round trip per member; the old pipeline did "
      << member_count + members_.size() << " (test members compressed twice)";
  EXPECT_EQ(decodes, member_count);
  EXPECT_EQ(counters.at("pvt.bias_reused"), members_.size());
}

TEST_F(PvtTest, BiasSweepWithReuseMatchesFullSweepBitForBit) {
  // The reused scores must be indistinguishable from recomputed ones:
  // verify()'s bias verdict equals the one derived from the standalone
  // full sweep (which round-trips every member itself).
  const comp::FpzCodec codec(16);
  const VariableVerdict v = verifier_.verify(codec, members_, /*run_bias=*/true);
  ASSERT_TRUE(v.bias_evaluated);

  const std::vector<double> full = verifier_.reconstructed_rmsz(codec);
  const BiasResult expected =
      bias_test(stats_.rmsz_distribution(), full,
                verifier_.thresholds().bias_confidence);
  EXPECT_EQ(v.bias.pass, expected.pass);
  EXPECT_EQ(v.bias.fit.slope, expected.fit.slope);          // bitwise: same
  EXPECT_EQ(v.bias.fit.intercept, expected.fit.intercept);  // inputs, same
  EXPECT_EQ(v.bias.slope_distance, expected.slope_distance);  // arithmetic
  // And the test members' sweep scores equal their evaluate_member scores.
  for (const MemberEvaluation& e : v.members) {
    EXPECT_EQ(full[e.member], e.rmsz_reconstructed) << "member " << e.member;
  }
}

TEST_F(PvtTest, RmszRangeAccessorMatchesDistributionScan) {
  const auto& dist = stats_.rmsz_distribution();
  const auto [lo, hi] = std::minmax_element(dist.begin(), dist.end());
  const auto [min, max] = stats_.rmsz_range();
  EXPECT_EQ(min, *lo);
  EXPECT_EQ(max, *hi);
  EXPECT_LE(min, max);
}

TEST(PickMembers, DeterministicSortedUnique) {
  const auto a = PvtVerifier::pick_members(3, 101, 9);
  const auto b = PvtVerifier::pick_members(3, 101, 9);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_LT(a[0], a[1]);
  EXPECT_LT(a[1], a[2]);
  EXPECT_LT(a[2], 101u);
}

TEST(PickMembers, DifferentSeedsDiffer) {
  EXPECT_NE(PvtVerifier::pick_members(3, 101, 1), PvtVerifier::pick_members(3, 101, 2));
}

TEST(PickMembers, CountEqualsPopulation) {
  const auto all = PvtVerifier::pick_members(5, 5, 3);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace cesm::core
