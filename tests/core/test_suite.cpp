#include "core/suite.h"

#include <gtest/gtest.h>

#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "core/export.h"
#include "core/hybrid.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

climate::EnsembleSpec tiny_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{12, 18, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

SuiteConfig fast_config() {
  SuiteConfig cfg;
  cfg.test_member_count = 2;
  cfg.grib_max_extra_digits = 3;
  return cfg;
}

class SuiteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ensemble_ = new climate::EnsembleGenerator(tiny_spec());
    results_ = new SuiteResults(
        run_suite(*ensemble_, fast_config(), {"U", "FSDSC", "CCN3", "SST", "CLDLOW"}));
  }
  static void TearDownTestSuite() {
    delete results_;
    delete ensemble_;
    results_ = nullptr;
    ensemble_ = nullptr;
  }

  static climate::EnsembleGenerator* ensemble_;
  static SuiteResults* results_;
};

climate::EnsembleGenerator* SuiteTest::ensemble_ = nullptr;
SuiteResults* SuiteTest::results_ = nullptr;

TEST_F(SuiteTest, ProducesNineVerdictsPerVariable) {
  ASSERT_EQ(results_->variant_names.size(), 9u);
  ASSERT_EQ(results_->variables.size(), 5u);
  for (const VariableResult& var : results_->variables) {
    ASSERT_EQ(var.verdicts.size(), 9u);
    for (const VariableVerdict& v : var.verdicts) {
      EXPECT_EQ(v.members.size(), 2u);
      EXPECT_TRUE(v.bias_evaluated);
    }
  }
}

TEST_F(SuiteTest, CharacterizationIsPopulated) {
  const VariableResult& u = results_->variable("U");
  EXPECT_GT(u.character.summary.range(), 0.0);
  EXPECT_GT(u.netcdf4_cr, 0.0);
  EXPECT_LE(u.netcdf4_cr, 1.05);
  EXPECT_GT(u.fpzip32_cr, 0.0);
}

TEST_F(SuiteTest, FillVariableCarriesFill) {
  const VariableResult& sst = results_->variable("SST");
  ASSERT_TRUE(sst.fill.has_value());
  EXPECT_EQ(*sst.fill, climate::kFillValue);
}

TEST_F(SuiteTest, TallyCountsAreConsistent) {
  const auto tally = results_->tally();
  ASSERT_EQ(tally.size(), 9u);
  for (const MethodTally& row : tally) {
    EXPECT_LE(row.all, row.rho);
    EXPECT_LE(row.all, row.rmsz);
    EXPECT_LE(row.all, row.enmax);
    EXPECT_LE(row.all, row.bias);
    EXPECT_LE(row.rho, results_->variables.size());
  }
}

TEST_F(SuiteTest, GentlerVariantsPassAtLeastAsOften) {
  // APAX-2 must never do worse than APAX-5; fpzip-24 never worse than
  // fpzip-16 (the paper's monotonicity: more compression, fewer passes).
  const auto tally = results_->tally();
  const auto find = [&](const std::string& name) -> const MethodTally& {
    for (const auto& t : tally) {
      if (t.codec == name) return t;
    }
    throw std::runtime_error("missing " + name);
  };
  EXPECT_GE(find("APAX-2").all, find("APAX-5").all);
  EXPECT_GE(find("fpzip-24").all, find("fpzip-16").all);
  EXPECT_GE(find("ISA-0.1").rho, find("ISA-1.0").rho);
}

TEST_F(SuiteTest, ApaxHitsItsFixedRates) {
  // The tiny test grid makes the fixed container header a visible
  // fraction of the stream; at paper-scale fields the rates are exact
  // (see ApaxFixedRate.AchievesAdvertisedRatio).
  for (const VariableResult& var : results_->variables) {
    EXPECT_NEAR(var.verdicts[results_->variant_index("APAX-2")].mean_cr, 0.50, 0.12);
    EXPECT_NEAR(var.verdicts[results_->variant_index("APAX-4")].mean_cr, 0.25, 0.12);
    EXPECT_NEAR(var.verdicts[results_->variant_index("APAX-5")].mean_cr, 0.20, 0.12);
  }
}

TEST_F(SuiteTest, HybridSelectionsCoverEveryVariable) {
  const auto hybrids = build_all_hybrids(*results_);
  ASSERT_EQ(hybrids.size(), 5u);
  for (const HybridSummary& h : hybrids) {
    EXPECT_EQ(h.selections.size(), results_->variables.size());
    std::size_t total = 0;
    for (const auto& [variant, count] : h.variant_counts) total += count;
    EXPECT_EQ(total, results_->variables.size());  // Table 8 sums to census
    EXPECT_LE(h.best_cr, h.avg_cr);
    EXPECT_GE(h.worst_cr, h.avg_cr);
    EXPECT_LE(h.avg_pearson, 1.0);
  }
}

TEST_F(SuiteTest, HybridChoosesPassingVariantsOnly) {
  const HybridSummary fpz = build_hybrid(*results_, "fpzip");
  for (const HybridSelection& sel : fpz.selections) {
    if (sel.lossless_fallback) {
      EXPECT_EQ(sel.variant, "fpzip-32");
      continue;
    }
    const VariableResult& var = results_->variable(sel.variable);
    const VariableVerdict& verdict = var.verdicts[results_->variant_index(sel.variant)];
    EXPECT_TRUE(verdict.all_pass());
  }
}

TEST_F(SuiteTest, NetCdfHybridIsAllLossless) {
  const HybridSummary nc = build_hybrid(*results_, "NetCDF-4");
  EXPECT_DOUBLE_EQ(nc.avg_pearson, 1.0);
  EXPECT_DOUBLE_EQ(nc.avg_nrmse, 0.0);
  for (const HybridSelection& sel : nc.selections) {
    EXPECT_EQ(sel.variant, "NetCDF-4");
  }
}

TEST(SuiteSingleVariable, RunVariableMatchesSuiteEntry) {
  const climate::EnsembleGenerator ens(tiny_spec());
  const SuiteConfig cfg = fast_config();
  const VariableResult direct = run_variable(ens, ens.variable("U"), cfg);
  const SuiteResults via_suite = run_suite(ens, cfg, {"U"});
  ASSERT_EQ(via_suite.variables.size(), 1u);
  EXPECT_EQ(direct.grib_decimal_scale, via_suite.variables[0].grib_decimal_scale);
  EXPECT_EQ(direct.verdicts[0].all_pass(), via_suite.variables[0].verdicts[0].all_pass());
  EXPECT_DOUBLE_EQ(direct.verdicts[3].mean_cr, via_suite.variables[0].verdicts[3].mean_cr);
}

TEST(SuiteSingleVariable, ChunkedInCoreRunSharesPlansAndMatchesPlanFreeRun) {
  // The in-core leg cuts resident members on the chunk partition and the
  // sweep shares each chunk's encode-prep plan across sibling variants, so
  // a chunked run shares plans exactly as an unchunked one does. Verifying
  // each variant in a pass of its own (no sibling, no plan) must give the
  // same CSV.
  climate::EnsembleSpec spec = tiny_spec();
  spec.grid = climate::GridSpec{16, 128, 4};  // U: 8192 points, two 4096-element chunks
  const climate::EnsembleGenerator ens(spec);
  SuiteConfig cfg = fast_config();
  cfg.chunk_elems = 4096;
  const auto csv_of = [&](const VariableResult& var) {
    SuiteResults results;
    results.variables.push_back(var);
    derive_variant_names(results);
    return suite_results_csv(results);
  };

  trace::set_enabled(true);
  trace::reset();
  const VariableResult planned = run_variable(ens, ens.variable("U"), cfg);
  const auto counters = trace::counters();
  trace::set_enabled(false);
  EXPECT_GT(counters.at("prep.plan_reused"), 0u);

  VariableResult plan_free = planned;
  const auto stats = EnsembleCache::global().stats(ens, ens.variable("U"));
  const PvtVerifier verifier(ChunkSource(*stats, cfg.chunk_elems), cfg.thresholds);
  const std::vector<comp::CodecPtr> variants =
      comp::paper_variants(planned.grib_decimal_scale, planned.fill);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    plan_free.verdicts[v] =
        verifier.verify(*variants[v], planned.test_members, cfg.run_bias);
  }
  EXPECT_EQ(csv_of(plan_free), csv_of(planned));
}

}  // namespace
}  // namespace cesm::core
