// Trigger semantics, configuration parsing, and counter bookkeeping of
// the cesm::fail fault-injection registry. The integration coverage that
// fires every *production* site lives in
// tests/integration/test_failpoint_sites.cpp.

#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

namespace cesm::fail {
namespace {

// One compiled-in site the tests can hit at will. The macro's static
// site-reference binds to the first name it sees, so each helper pins its
// own name. "sched.task" is a real registered site; hitting it here only
// adds to its counters.
void poke() { CESM_FAILPOINT("sched.task"); }

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { reset(); }
  void TearDown() override { reset(); }
};

TEST_F(FailpointTest, DisabledByDefaultAndZeroHitAccounting) {
  EXPECT_FALSE(enabled());
  poke();  // gated out entirely: not even the hit counter moves
  EXPECT_EQ(hit_count("sched.task"), 0u);
  EXPECT_EQ(fire_count("sched.task"), 0u);
}

TEST_F(FailpointTest, AlwaysFiresEveryHit) {
  arm("sched.task", Trigger::always());
  EXPECT_TRUE(enabled());
  EXPECT_THROW(poke(), InjectedFault);
  EXPECT_THROW(poke(), InjectedFault);
  EXPECT_EQ(hit_count("sched.task"), 2u);
  EXPECT_EQ(fire_count("sched.task"), 2u);
  disarm("sched.task");
  EXPECT_FALSE(enabled());
  poke();  // disarmed again: clean pass-through
}

TEST_F(FailpointTest, OnceFiresExactlyOnceThenDisarms) {
  arm("sched.task", Trigger::once());
  EXPECT_THROW(poke(), InjectedFault);
  EXPECT_FALSE(enabled()) << "one-shot trigger must disarm itself";
  poke();
  poke();
  EXPECT_EQ(fire_count("sched.task"), 1u);
}

TEST_F(FailpointTest, NthFiresOnExactlyTheNthArmedHit) {
  arm("sched.task", Trigger::nth(3));
  poke();
  poke();
  EXPECT_THROW(poke(), InjectedFault);
  EXPECT_EQ(fire_count("sched.task"), 1u);
  EXPECT_FALSE(enabled());
}

TEST_F(FailpointTest, InjectedFaultCarriesSiteAndIsACesmError) {
  arm("sched.task", Trigger::once());
  try {
    poke();
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_EQ(e.site(), "sched.task");
    EXPECT_NE(std::string(e.what()).find("sched.task"), std::string::npos);
    const Error* base = &e;  // must travel the ordinary error unwind path
    EXPECT_NE(base, nullptr);
  }
}

TEST_F(FailpointTest, ProbabilityIsDeterministicPerSeed) {
  const auto pattern = [&](std::uint64_t seed) {
    reset();
    arm("sched.task", Trigger::with_probability(0.3, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) {
      bool f = false;
      try {
        poke();
      } catch (const InjectedFault&) {
        f = true;
      }
      fired.push_back(f);
    }
    return fired;
  };
  const auto a = pattern(42);
  const auto b = pattern(42);
  const auto c = pattern(43);
  EXPECT_EQ(a, b) << "same seed must fire at the same hit indices";
  EXPECT_NE(a, c) << "different seeds should differ somewhere in 200 hits";
  const auto fires = static_cast<double>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires / 200.0, 0.15);
  EXPECT_LT(fires / 200.0, 0.45);
}

TEST_F(FailpointTest, ProbabilityZeroNeverFiresProbabilityOneAlwaysFires) {
  arm("sched.task", Trigger::with_probability(0.0, 7));
  for (int i = 0; i < 50; ++i) poke();
  EXPECT_EQ(fire_count("sched.task"), 0u);
  arm("sched.task", Trigger::with_probability(1.0, 7));
  for (int i = 0; i < 10; ++i) EXPECT_THROW(poke(), InjectedFault);
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint fp("sched.task", Trigger::always());
    EXPECT_TRUE(enabled());
    EXPECT_THROW(poke(), InjectedFault);
  }
  EXPECT_FALSE(enabled());
  poke();
  EXPECT_EQ(fire_count("sched.task"), 1u);
}

TEST_F(FailpointTest, ArmRejectsUnknownSite) {
  EXPECT_THROW(arm("no.such.site", Trigger::always()), InvalidArgument);
  EXPECT_FALSE(is_registered("no.such.site"));
  EXPECT_TRUE(is_registered("sched.task"));
}

TEST_F(FailpointTest, RegistryListsEveryCompiledInSite) {
  const std::vector<std::string> sites = all_sites();
  ASSERT_GE(sites.size(), 17u);
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  for (const char* expected :
       {"apax.decode", "deflate.decode", "fpz.decode", "grib2.decode", "isabela.decode",
        "ncio.read", "ncio.read_file", "ncio.write", "ncio.write_file", "sched.task",
        "special.decode", "suite.variable", "suite.verify_variant"}) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), expected), sites.end()) << expected;
  }
}

TEST_F(FailpointTest, ConfigureParsesMultipleEntriesAndWhitespace) {
  configure(" fpz.decode = once , grib2.decode=nth:4 ; ncio.read=prob:0.5:99 ");
  EXPECT_TRUE(enabled());
  // All three armed: firing fpz disarms only that one.
  disarm("grib2.decode");
  disarm("ncio.read");
  EXPECT_TRUE(enabled());
  disarm("fpz.decode");
  EXPECT_FALSE(enabled());
}

TEST_F(FailpointTest, ConfigureRejectsMalformedSpecs) {
  EXPECT_THROW(configure("fpz.decode"), InvalidArgument);
  EXPECT_THROW(configure("=always"), InvalidArgument);
  EXPECT_THROW(configure("fpz.decode="), InvalidArgument);
  EXPECT_THROW(configure("fpz.decode=nth:0"), InvalidArgument);
  EXPECT_THROW(configure("fpz.decode=nth:x"), InvalidArgument);
  EXPECT_THROW(configure("fpz.decode=prob:1.5"), InvalidArgument);
  EXPECT_THROW(configure("fpz.decode=prob:0.5:zz"), InvalidArgument);
  EXPECT_THROW(configure("fpz.decode=sometimes"), InvalidArgument);
  EXPECT_THROW(configure("no.such.site=always"), InvalidArgument);
  EXPECT_FALSE(enabled());
}

TEST_F(FailpointTest, ConfigureFromEnvAppliesAndSurvivesGarbage) {
  ASSERT_EQ(setenv("CESM_FAILPOINTS", "sched.task=nth:2", 1), 0);
  EXPECT_TRUE(configure_from_env());
  EXPECT_TRUE(enabled());
  poke();
  EXPECT_THROW(poke(), InjectedFault);

  ASSERT_EQ(setenv("CESM_FAILPOINTS", "total garbage", 1), 0);
  EXPECT_FALSE(configure_from_env()) << "malformed env must warn, not throw";

  ASSERT_EQ(unsetenv("CESM_FAILPOINTS"), 0);
  EXPECT_FALSE(configure_from_env());
}

TEST_F(FailpointTest, ResetClearsCountersAndTriggers) {
  arm("sched.task", Trigger::always());
  EXPECT_THROW(poke(), InjectedFault);
  reset();
  EXPECT_FALSE(enabled());
  EXPECT_EQ(hit_count("sched.task"), 0u);
  EXPECT_EQ(fire_count("sched.task"), 0u);
  const auto counts = fire_counts();
  for (const auto& [site, fires] : counts) EXPECT_EQ(fires, 0u) << site;
  EXPECT_EQ(counts.size(), all_sites().size());
}

TEST_F(FailpointTest, CountersThrowForUnknownSite) {
  EXPECT_THROW(hit_count("no.such.site"), InvalidArgument);
  EXPECT_THROW(fire_count("no.such.site"), InvalidArgument);
}

}  // namespace
}  // namespace cesm::fail
