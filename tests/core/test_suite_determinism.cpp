// Bit-identical suite outputs across scheduler sizes.
//
// The paper's methodology is a reproducibility argument: a verdict that
// depends on how many cores evaluated it is worthless. The scheduler's
// contract (disjoint-slot parallel_for writes, fixed-chunk-order
// parallel_reduce, point-sliced ensemble accumulation) promises that
// run_suite is a pure function of its inputs — these tests pin that down
// by comparing every float, flag, and tally bitwise across worker counts
// 1, 2, and hardware concurrency, steal interleavings and all.

#include "core/suite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <thread>

#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "util/scheduler.h"

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

/// Bitwise double comparison with a location message.
#define EXPECT_SAME_BITS(a, b)                                        \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(a)),     \
            std::bit_cast<std::uint64_t>(static_cast<double>(b)))     \
      << #a " differs from " #b

void expect_identical(const SuiteResults& x, const SuiteResults& y) {
  ASSERT_EQ(x.variant_names, y.variant_names);
  ASSERT_EQ(x.variables.size(), y.variables.size());
  for (std::size_t i = 0; i < x.variables.size(); ++i) {
    const VariableResult& a = x.variables[i];
    const VariableResult& b = y.variables[i];
    EXPECT_EQ(a.variable, b.variable);
    EXPECT_EQ(a.test_members, b.test_members);
    EXPECT_EQ(a.grib_decimal_scale, b.grib_decimal_scale);
    EXPECT_EQ(a.grib_tuning_passed, b.grib_tuning_passed);
    EXPECT_SAME_BITS(a.netcdf4_cr, b.netcdf4_cr);
    EXPECT_SAME_BITS(a.fpzip32_cr, b.fpzip32_cr);
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t v = 0; v < a.verdicts.size(); ++v) {
      const VariableVerdict& va = a.verdicts[v];
      const VariableVerdict& vb = b.verdicts[v];
      EXPECT_EQ(va.codec, vb.codec);
      EXPECT_EQ(va.rho_pass, vb.rho_pass);
      EXPECT_EQ(va.rmsz_pass, vb.rmsz_pass);
      EXPECT_EQ(va.enmax_pass, vb.enmax_pass);
      EXPECT_EQ(va.bias_pass, vb.bias_pass);
      EXPECT_SAME_BITS(va.mean_cr, vb.mean_cr);
      ASSERT_EQ(va.members.size(), vb.members.size());
      for (std::size_t m = 0; m < va.members.size(); ++m) {
        const MemberEvaluation& ma = va.members[m];
        const MemberEvaluation& mb = vb.members[m];
        EXPECT_EQ(ma.member, mb.member);
        EXPECT_SAME_BITS(ma.cr, mb.cr);
        EXPECT_SAME_BITS(ma.metrics.pearson, mb.metrics.pearson);
        EXPECT_SAME_BITS(ma.metrics.e_nmax, mb.metrics.e_nmax);
        EXPECT_SAME_BITS(ma.rmsz_original, mb.rmsz_original);
        EXPECT_SAME_BITS(ma.rmsz_reconstructed, mb.rmsz_reconstructed);
        EXPECT_SAME_BITS(ma.enmax_ratio, mb.enmax_ratio);
        EXPECT_EQ(ma.rho_pass, mb.rho_pass);
        EXPECT_EQ(ma.rmsz_pass, mb.rmsz_pass);
        EXPECT_EQ(ma.enmax_pass, mb.enmax_pass);
      }
    }
  }
  // Tallies are derived, but compare them anyway: they are the paper's
  // Table 6 and the most visible output.
  const auto tx = x.tally();
  const auto ty = y.tally();
  ASSERT_EQ(tx.size(), ty.size());
  for (std::size_t i = 0; i < tx.size(); ++i) {
    EXPECT_EQ(tx[i].codec, ty[i].codec);
    EXPECT_EQ(tx[i].all, ty[i].all);
    EXPECT_EQ(tx[i].rho, ty[i].rho);
    EXPECT_EQ(tx[i].rmsz, ty[i].rmsz);
    EXPECT_EQ(tx[i].enmax, ty[i].enmax);
    EXPECT_EQ(tx[i].bias, ty[i].bias);
  }
}

SuiteResults run_with_threads(std::size_t threads, const SuiteConfig& cfg = fast_config()) {
  ScopedScheduler scoped(threads);
  // A fresh generator per run: ensemble synthesis itself uses the
  // scheduler, so this also checks that the synthesized inputs are
  // thread-count independent.
  const climate::EnsembleGenerator ensemble(tiny_spec());
  return run_suite(ensemble, cfg, {"U", "SST", "CLDLOW"});
}

TEST(SuiteDeterminism, BitIdenticalAcrossSchedulerSizes) {
  const SuiteResults serial = run_with_threads(1);
  const SuiteResults two = run_with_threads(2);
  expect_identical(serial, two);
  const std::size_t hw =
      std::max<std::size_t>(2, std::thread::hardware_concurrency());
  const SuiteResults wide = run_with_threads(hw);
  expect_identical(serial, wide);
}

TEST(SuiteDeterminism, RepeatedWideRunsAgree) {
  // Same thread count, different steal interleavings.
  const SuiteResults a = run_with_threads(4);
  const SuiteResults b = run_with_threads(4);
  expect_identical(a, b);
}

TEST(SuiteDeterminism, BitIdenticalAcrossVariantJobsSettings) {
  // The variant sweep's scheduling knob must be invisible in the results:
  // one member-major pass (jobs=1) and one task per plan-sharing run (any
  // other value) land verdicts in the same fixed slots with the same bits.
  const SuiteResults serial = run_with_threads(4);  // variant_jobs = 1 default
  SuiteConfig four = fast_config();
  four.variant_jobs = 4;
  expect_identical(serial, run_with_threads(4, four));
  SuiteConfig full = fast_config();
  full.variant_jobs = 0;
  expect_identical(serial, run_with_threads(4, full));
}

TEST(SuiteDeterminism, BitIdenticalToOneVariantAtATime) {
  // The member-major sweep shares each chunk's encode-prep plan across
  // sibling variants and one reconstruction lane across all nine; neither
  // may change a bit. Re-verify every variant in a pass of its own — no
  // sibling, so no plan — and compare.
  ScopedScheduler scoped(2);
  const climate::EnsembleGenerator ensemble(tiny_spec());
  const SuiteConfig cfg = fast_config();
  const SuiteResults swept = run_suite(ensemble, cfg, {"U", "SST", "CLDLOW"});
  SuiteResults alone = swept;
  for (VariableResult& var : alone.variables) {
    const auto stats = EnsembleCache::global().stats(ensemble, ensemble.variable(var.variable));
    const PvtVerifier verifier(*stats, cfg.thresholds);
    const std::vector<comp::CodecPtr> variants =
        comp::paper_variants(var.grib_decimal_scale, var.fill);
    for (std::size_t v = 0; v < variants.size(); ++v) {
      var.verdicts[v] = verifier.verify(*variants[v], var.test_members, cfg.run_bias);
    }
  }
  expect_identical(swept, alone);
}

}  // namespace
}  // namespace cesm::core
