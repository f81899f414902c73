// Negative-path coverage for the suite/hybrid layer.

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/hybrid.h"
#include "core/suite.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

SuiteResults tiny_results() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{8, 24, 2};
  spec.members = 5;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 100;
  spec.latent.average_steps = 200;
  const climate::EnsembleGenerator ens(spec);
  SuiteConfig cfg;
  cfg.test_member_count = 1;
  cfg.run_bias = false;
  return run_suite(ens, cfg, {"U"});
}

TEST(SuiteNegative, UnknownVariantIndexThrows) {
  const SuiteResults r = tiny_results();
  EXPECT_THROW((void)r.variant_index("zfp"), InvalidArgument);
  EXPECT_EQ(r.variant_index("fpzip-24"), 4u);
}

TEST(SuiteNegative, UnknownVariableThrows) {
  const SuiteResults r = tiny_results();
  EXPECT_THROW((void)r.variable("NOPE"), InvalidArgument);
  EXPECT_EQ(r.variable("U").variable, "U");
}

TEST(SuiteNegative, UnknownHybridFamilyThrows) {
  const SuiteResults r = tiny_results();
  EXPECT_THROW(build_hybrid(r, "zstd"), InvalidArgument);
}

TEST(SuiteNegative, HybridSkipsFailedVariables) {
  // A processing_failed variable keeps its row in SuiteResults with no
  // verdicts; the hybrid must leave it out of the selections and the
  // averages instead of indexing its empty verdict list.
  const SuiteResults ok = tiny_results();
  SuiteResults r = ok;
  VariableResult failed;
  failed.variable = "BROKEN";
  failed.processing_failed = true;
  failed.error_message = "injected";
  r.variables.push_back(failed);

  for (const char* family : {"GRIB2", "ISABELA", "fpzip", "APAX", "NetCDF-4"}) {
    const HybridSummary expected = build_hybrid(ok, family);
    const HybridSummary h = build_hybrid(r, family);
    ASSERT_EQ(h.selections.size(), 1u) << family;
    EXPECT_EQ(h.selections[0].variable, "U");
    EXPECT_EQ(h.selections[0].variant, expected.selections[0].variant);
    EXPECT_EQ(h.avg_cr, expected.avg_cr);
    EXPECT_EQ(h.variant_counts, expected.variant_counts);
  }

  // Nothing processed: no hybrid to build.
  SuiteResults none;
  none.variant_names = ok.variant_names;
  none.variables = {failed};
  EXPECT_THROW(build_hybrid(none, "fpzip"), InvalidArgument);
}

TEST(SuiteNegative, BiasSkippedVerdictsDoNotVeto) {
  const SuiteResults r = tiny_results();
  for (const VariableVerdict& v : r.variables[0].verdicts) {
    EXPECT_FALSE(v.bias_evaluated);
    EXPECT_TRUE(v.bias_pass);  // unevaluated => no veto
  }
}

// Hand-built results pin down tally()'s exact arithmetic without paying
// for an ensemble run.
SuiteResults hand_built_results() {
  SuiteResults r;
  r.variant_names = {"A", "B"};

  VariableVerdict pass;
  pass.rho_pass = pass.rmsz_pass = pass.enmax_pass = pass.bias_pass = true;
  VariableVerdict rho_only;
  rho_only.rho_pass = true;
  rho_only.rmsz_pass = rho_only.enmax_pass = rho_only.bias_pass = false;
  VariableVerdict all_fail;
  all_fail.rho_pass = all_fail.rmsz_pass = all_fail.enmax_pass = all_fail.bias_pass = false;

  VariableResult v1;
  v1.variable = "X";
  v1.verdicts = {pass, rho_only};  // variant A passes all, B only rho
  VariableResult v2;
  v2.variable = "Y";
  v2.verdicts = {pass, all_fail};
  r.variables = {v1, v2};
  return r;
}

TEST(SuiteTally, CountsExactlyPerVariant) {
  const SuiteResults r = hand_built_results();
  const std::vector<MethodTally> tally = r.tally();
  ASSERT_EQ(tally.size(), 2u);

  EXPECT_EQ(tally[0].codec, "A");
  EXPECT_EQ(tally[0].rho, 2u);
  EXPECT_EQ(tally[0].rmsz, 2u);
  EXPECT_EQ(tally[0].enmax, 2u);
  EXPECT_EQ(tally[0].bias, 2u);
  EXPECT_EQ(tally[0].all, 2u);

  EXPECT_EQ(tally[1].codec, "B");
  EXPECT_EQ(tally[1].rho, 1u);
  EXPECT_EQ(tally[1].rmsz, 0u);
  EXPECT_EQ(tally[1].enmax, 0u);
  EXPECT_EQ(tally[1].bias, 0u);
  EXPECT_EQ(tally[1].all, 0u);
}

TEST(SuiteTally, EmptyResultsTallyToNothing) {
  SuiteResults r;
  EXPECT_TRUE(r.tally().empty());
  EXPECT_THROW((void)r.variant_index("A"), InvalidArgument);
  EXPECT_THROW((void)r.variable("X"), InvalidArgument);
}

TEST(SuiteTally, VariantIndexAndVariableLookUpHandBuiltEntries) {
  const SuiteResults r = hand_built_results();
  EXPECT_EQ(r.variant_index("A"), 0u);
  EXPECT_EQ(r.variant_index("B"), 1u);
  EXPECT_THROW((void)r.variant_index("a"), InvalidArgument);  // lookups are exact
  EXPECT_EQ(r.variable("Y").variable, "Y");
  EXPECT_THROW((void)r.variable("Z"), InvalidArgument);
}

TEST(SuiteNegative, UnknownVariableInRunSuiteThrows) {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{8, 24, 2};
  spec.members = 4;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 100;
  spec.latent.average_steps = 200;
  const climate::EnsembleGenerator ens(spec);
  EXPECT_THROW(run_suite(ens, SuiteConfig{}, {"NOT_A_VAR"}), InvalidArgument);
}

TEST(SuiteNegative, ZeroTestMembersThrowsInvalidArgument) {
  // Regression: test_member_count == 0 used to sail through pick_members
  // and dereference test_members.front() on an empty vector.
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{8, 24, 2};
  spec.members = 4;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 100;
  spec.latent.average_steps = 200;
  const climate::EnsembleGenerator ens(spec);
  SuiteConfig cfg;
  cfg.test_member_count = 0;
  cfg.run_bias = false;
  EXPECT_THROW(run_variable(ens, ens.variable("U"), cfg), InvalidArgument);
  EXPECT_THROW(run_suite(ens, cfg, {"U"}), InvalidArgument);
}

TEST(SuiteNegative, BadGribTuningConfigThrowsBeforeTheProbes) {
  // A negative grib_max_extra_digits used to run zero ladder rungs and
  // verify GRIB2 at a D that was never tried; significant digits outside
  // [1, 12] only threw inside the magnitude heuristic, after the probes.
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{8, 24, 2};
  spec.members = 4;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 100;
  spec.latent.average_steps = 200;
  const climate::EnsembleGenerator ens(spec);
  for (const auto& [extra, digits] : {std::pair{-1, 4}, std::pair{-7, 4}, std::pair{2, 0},
                                      std::pair{2, 13}, std::pair{2, -3}}) {
    SCOPED_TRACE("extra " + std::to_string(extra) + ", digits " + std::to_string(digits));
    SuiteConfig cfg;
    cfg.run_bias = false;
    cfg.grib_max_extra_digits = extra;
    cfg.grib_significant_digits = digits;
    trace::set_enabled(true);
    trace::reset();
    EXPECT_THROW(run_suite(ens, cfg, {"U"}), InvalidArgument);
    const auto counters = trace::counters();
    trace::set_enabled(false);
    EXPECT_EQ(counters.at("pvt.member_encodes"), 0u) << "a probe ran first";
  }
  SuiteConfig edge;
  edge.run_bias = false;
  edge.grib_max_extra_digits = 0;
  edge.grib_significant_digits = 12;
  const SuiteResults ok = run_suite(ens, edge, {"U"});
  EXPECT_EQ(ok.failed_variable_count(), 0u);
}

TEST(SuiteNegative, VariantNamesMatchRecordedVerdicts) {
  // variant_names must be derived from the verdicts actually recorded
  // (tally() pairs variant_names[v] with verdicts[v] by index), and the
  // order must remain the paper's canonical variant order.
  const SuiteResults r = tiny_results();
  ASSERT_FALSE(r.variables.empty());
  for (const VariableResult& var : r.variables) {
    ASSERT_EQ(var.verdicts.size(), r.variant_names.size());
    for (std::size_t v = 0; v < var.verdicts.size(); ++v) {
      EXPECT_EQ(var.verdicts[v].codec, r.variant_names[v]);
    }
  }
  const std::vector<std::string> expected = {
      "GRIB2",    "APAX-2",  "APAX-4",  "APAX-5", "fpzip-24",
      "fpzip-16", "ISA-0.1", "ISA-0.5", "ISA-1.0"};
  EXPECT_EQ(r.variant_names, expected);
}

}  // namespace
}  // namespace cesm::core
