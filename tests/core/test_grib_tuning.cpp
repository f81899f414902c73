#include "core/grib_tuning.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>

#include "climate/ensemble.h"
#include "compress/grib2/grib2.h"
#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "core/ooc.h"
#include "core/suite.h"
#include "support/suite_equal.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

std::vector<climate::Field> members_with_scale(std::size_t members, std::size_t n,
                                               double offset, double amplitude,
                                               double spread, std::uint64_t seed) {
  std::vector<climate::Field> fields(members);
  for (std::size_t m = 0; m < members; ++m) {
    NormalSampler rng(hash_combine(seed, m));
    fields[m].name = "X";
    fields[m].shape = comp::Shape::d1(n);
    fields[m].data.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      fields[m].data[i] = static_cast<float>(offset + amplitude * std::sin(i * 0.05) +
                                             spread * rng.next());
    }
  }
  return fields;
}

TEST(GribTuning, FindsPassingScaleForBenignVariable) {
  const EnsembleStats stats(members_with_scale(15, 600, 100.0, 20.0, 1.0, 0x1));
  const std::vector<std::size_t> probes = {2, 9};
  const GribTuning t = rmsz_guided_decimal_scale(stats, std::nullopt, probes);
  EXPECT_TRUE(t.passed);

  // The chosen D must actually pass the member tests.
  const PvtVerifier verifier(stats);
  const comp::Grib2Codec codec(t.decimal_scale, std::nullopt);
  for (std::size_t m : probes) {
    const MemberEvaluation e = verifier.evaluate_member(codec, m);
    EXPECT_TRUE(e.rho_pass && e.rmsz_pass && e.enmax_pass);
  }
}

TEST(GribTuning, StartsFromMagnitudeHeuristicAndRefines) {
  // Tight ensemble spread forces a finer D than the 4-digit heuristic.
  const EnsembleStats stats(members_with_scale(15, 600, 0.0, 50.0, 1e-4, 0x2));
  const std::vector<std::size_t> probes = {4};
  const GribTuning t =
      rmsz_guided_decimal_scale(stats, std::nullopt, probes, PvtThresholds{});
  const climate::Field& probe = stats.member(4);
  const auto s = stats::summarize(std::span<const float>(probe.data));
  const int d0 = comp::choose_decimal_scale(s.min, s.max, 4);
  EXPECT_GE(t.decimal_scale, d0);
  EXPECT_GT(t.attempts, 1);
}

TEST(GribTuning, ReportsFailureWhenSearchBudgetExhausted) {
  // Huge range, tiny genuine spread: the heuristic D quantizes far coarser
  // than the ensemble sigma, and with no extra digits allowed the tuner
  // must report failure while keeping the finest D it tried.
  const EnsembleStats stats(members_with_scale(15, 400, 0.0, 1.0e4, 0.05, 0x3));
  const std::vector<std::size_t> probes = {1};
  const GribTuning t = rmsz_guided_decimal_scale(stats, std::nullopt, probes,
                                                 PvtThresholds{}, 4, 0);
  EXPECT_FALSE(t.passed);
  EXPECT_EQ(t.attempts, 1);
}

TEST(GribTuning, TunedScaleIsDeterministic) {
  const EnsembleStats stats(members_with_scale(12, 500, 50.0, 10.0, 0.5, 0x4));
  const std::vector<std::size_t> probes = {0, 5};
  const GribTuning a = rmsz_guided_decimal_scale(stats, std::nullopt, probes);
  const GribTuning b = rmsz_guided_decimal_scale(stats, std::nullopt, probes);
  EXPECT_EQ(a.decimal_scale, b.decimal_scale);
  EXPECT_EQ(a.passed, b.passed);
}

TEST(GribTuning, NegativeExtraDigitsAreRejected) {
  // The ladder's last rung is extra == max_extra_digits: a negative budget
  // would never reach it.
  const EnsembleStats stats(members_with_scale(12, 300, 50.0, 10.0, 0.5, 0x5));
  const std::vector<std::size_t> probes = {0};
  EXPECT_THROW((void)rmsz_guided_decimal_scale(stats, std::nullopt, probes,
                                               PvtThresholds{}, 4, -1),
               InvalidArgument);
}

// --- one pass: the tuning's last rung is the GRIB2 verdict ------------------

climate::EnsembleSpec suite_spec() {
  // 1025 columns: at chunk_elems 1024 a 2-D variable splits into a full
  // chunk and a 1-element tail (the partition edge of tests/core/test_ooc).
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{25, 41, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

const climate::EnsembleGenerator& suite_ensemble() {
  static const climate::EnsembleGenerator ensemble(suite_spec());
  return ensemble;
}

/// Runs with the ensemble cache off, then restores the env-derived state.
struct CacheOff {
  CacheOff() {
    util::CacheConfig cfg;
    cfg.enabled = false;
    EnsembleCache::global().configure(cfg);
  }
  ~CacheOff() { EnsembleCache::global().configure(util::CacheConfig::from_env()); }
};

/// Trace counters of `body`, plus "grib2.decodes": the hits of the
/// "grib2.decode" failpoint, armed with prob:0.0 so it counts without
/// ever firing.
template <typename Body>
std::map<std::string, std::uint64_t> traced_counters(const Body& body) {
  fail::reset();
  fail::ScopedFailpoint count_decodes("grib2.decode", fail::Trigger::with_probability(0.0));
  trace::set_enabled(true);
  trace::reset();
  body();
  std::map<std::string, std::uint64_t> counters = trace::counters();
  counters["grib2.decodes"] = fail::hit_count("grib2.decode");
  trace::set_enabled(false);
  fail::reset();
  return counters;
}

TEST(GribTuning, OnePassVerifyRoundTripsGribTestMembersOnlyInTuning) {
  // The sweep round-trips the three test members through the eight other
  // variants only: GRIB2's verdict members are the tuning's chosen rung.
  // Verifying GRIB2 again at the chosen D would add 3 round trips
  // (9 x 3 in the sweep). One worker keeps the ladder's early break
  // serial, so the standalone ladder's count is exact. U passes at the
  // heuristic D; CCN3's large range climbs the whole ladder.
  ScopedScheduler serial(1);
  const CacheOff cache_off;
  const climate::EnsembleGenerator& ens = suite_ensemble();
  SuiteConfig cfg;
  cfg.test_member_count = 3;
  cfg.run_bias = false;
  int longest_ladder = 0;
  for (const char* variable : {"U", "CCN3"}) {
    SCOPED_TRACE(variable);
    const climate::VariableSpec& spec = ens.variable(variable);
    ASSERT_FALSE(spec.has_fill);

    const std::shared_ptr<const EnsembleStats> stats = EnsembleCache::global().stats(ens, spec);
    const PvtVerifier verifier(*stats, cfg.thresholds);
    const std::vector<std::size_t> tests =
        PvtVerifier::pick_members(cfg.test_member_count, stats->member_count(),
                                  hash_combine(cfg.member_seed, spec.stream));
    GribTuning ladder;
    const auto rungs = traced_counters([&] {
      ladder = tune_decimal_scale(verifier, std::nullopt, tests, cfg.grib_significant_digits,
                                  cfg.grib_max_extra_digits);
    });
    longest_ladder = std::max(longest_ladder, ladder.attempts);

    SuiteResults results;
    const auto suite = traced_counters([&] { results = run_suite(ens, cfg, {variable}); });
    const VariableResult& r = results.variables.at(0);
    ASSERT_FALSE(r.processing_failed);
    EXPECT_EQ(r.grib_decimal_scale, ladder.decimal_scale);
    EXPECT_EQ(suite.at("grib.tune_attempts"), static_cast<std::uint64_t>(ladder.attempts));
    EXPECT_EQ(suite.at("pvt.member_roundtrips"),
              rungs.at("pvt.member_roundtrips") + 8 * 3)
        << "the GRIB2 verify re-measured the test members the tuning measured";
    // Unchunked, one decode per member: every GRIB2 decode is a rung's.
    EXPECT_EQ(suite.at("grib2.decodes"), rungs.at("grib2.decodes"));
    EXPECT_GT(rungs.at("grib2.decodes"), 0u);
  }
  EXPECT_GT(longest_ladder, 1);
}

/// The suite's GRIB2 verdict equals a standalone verify of the catalog's
/// GRIB2 variant at the tuned D, on the suite's partition.
void expect_grib_verdict_is_standalone(const VariableResult& r, const SuiteConfig& cfg) {
  ASSERT_FALSE(r.processing_failed) << r.error_message;
  const climate::EnsembleGenerator& ens = suite_ensemble();
  const std::shared_ptr<const EnsembleStats> stats =
      EnsembleCache::global().stats(ens, ens.variable(r.variable));
  const PvtVerifier verifier(ChunkSource(*stats, cfg.chunk_elems), cfg.thresholds);
  const comp::CodecPtr grib = comp::variant_row("GRIB2").build(r.grib_decimal_scale, r.fill);
  const VariableVerdict expected = verifier.verify(*grib, r.test_members, cfg.run_bias);
  ASSERT_EQ(r.verdicts.at(0).codec, grib->name());
  EXPECT_EQ(expected.bias_evaluated, cfg.run_bias);
  testsupport::expect_same_verdict(r.verdicts.at(0), expected);
}

TEST(GribTuning, SuiteVerdictEqualsStandaloneVerifyAtTunedScale) {
  const CacheOff cache_off;
  const climate::EnsembleGenerator& ens = suite_ensemble();
  struct Case {
    const char* name;
    const char* variable;
    int extra_digits;
    std::size_t chunk_elems;
    std::size_t variant_jobs;
    bool run_bias;
    bool expect_passed;
  };
  const Case cases[] = {
      {"passing ladder", "U", 2, 0, 1, true, true},
      {"passing ladder, one task per run", "U", 2, 0, 0, true, true},
      {"passing ladder, bias off", "FSDSC", 2, 0, 0, false, true},
      {"exhausted ladder", "CCN3", 0, 0, 1, true, false},
      {"exhausted ladder, one task per run", "CCN3", 0, 0, 0, false, false},
      {"chunked", "U", 2, 1024, 1, true, true},
      {"chunked, one task per run", "CCN3", 0, 1024, 0, true, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SuiteConfig cfg;
    cfg.test_member_count = 3;
    cfg.grib_max_extra_digits = c.extra_digits;
    cfg.chunk_elems = c.chunk_elems;
    cfg.variant_jobs = c.variant_jobs;
    cfg.run_bias = c.run_bias;
    const SuiteResults results = run_suite(ens, cfg, {c.variable});
    const VariableResult& r = results.variables.at(0);
    EXPECT_EQ(r.grib_tuning_passed, c.expect_passed);
    expect_grib_verdict_is_standalone(r, cfg);
  }
}

TEST(GribTuning, StreamedVerdictEqualsStandaloneVerifyAtTunedScale) {
  // The streamed leg verifies from a CNK1 store; by the in-core/streaming
  // contract its GRIB2 verdict equals the standalone in-core verify on the
  // same partition.
  const CacheOff cache_off;
  const climate::EnsembleGenerator& ens = suite_ensemble();
  for (const char* variable : {"U", "CCN3"}) {
    SCOPED_TRACE(variable);
    OocConfig cfg;
    cfg.chunk_elems = 1024;
    cfg.spill_dir = ::testing::TempDir();
    cfg.suite.test_member_count = 3;
    cfg.suite.chunk_elems = 1024;
    cfg.suite.grib_max_extra_digits = std::string(variable) == "CCN3" ? 0 : 2;
    const VariableResult r = run_variable_streaming(ens, ens.variable(variable), cfg);
    expect_grib_verdict_is_standalone(r, cfg.suite);
  }
}

}  // namespace
}  // namespace cesm::core
