#pragma once
// Bitwise comparison of two suite outputs (cesm::testsupport).
//
// Every float a verdict rests on is compared by its bits, every flag and
// tally exactly: the contract the scheduler, the variant sweep and the
// streaming leg all promise is "the same bytes", not "close".

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/suite.h"

/// Bitwise double comparison with a location message.
#define EXPECT_SAME_BITS(a, b)                                        \
  EXPECT_EQ(std::bit_cast<std::uint64_t>(static_cast<double>(a)),     \
            std::bit_cast<std::uint64_t>(static_cast<double>(b)))     \
      << #a " differs from " #b

namespace cesm::testsupport {

/// Every field of two verdicts, floats by their bits.
inline void expect_same_verdict(const core::VariableVerdict& va,
                                const core::VariableVerdict& vb) {
  EXPECT_EQ(va.variable, vb.variable);
  EXPECT_EQ(va.codec, vb.codec);
  EXPECT_EQ(va.rho_pass, vb.rho_pass);
  EXPECT_EQ(va.rmsz_pass, vb.rmsz_pass);
  EXPECT_EQ(va.enmax_pass, vb.enmax_pass);
  EXPECT_EQ(va.bias_pass, vb.bias_pass);
  EXPECT_EQ(va.bias_evaluated, vb.bias_evaluated);
  EXPECT_EQ(va.bias.pass, vb.bias.pass);
  EXPECT_SAME_BITS(va.bias.fit.slope, vb.bias.fit.slope);
  EXPECT_SAME_BITS(va.bias.fit.intercept, vb.bias.fit.intercept);
  EXPECT_SAME_BITS(va.bias.slope_distance, vb.bias.slope_distance);
  EXPECT_EQ(va.codec_error, vb.codec_error);
  EXPECT_EQ(va.fallback_codec, vb.fallback_codec);
  EXPECT_SAME_BITS(va.mean_cr, vb.mean_cr);
  ASSERT_EQ(va.members.size(), vb.members.size());
  for (std::size_t m = 0; m < va.members.size(); ++m) {
    const core::MemberEvaluation& ma = va.members[m];
    const core::MemberEvaluation& mb = vb.members[m];
    EXPECT_EQ(ma.member, mb.member);
    EXPECT_SAME_BITS(ma.cr, mb.cr);
    EXPECT_SAME_BITS(ma.metrics.rmse, mb.metrics.rmse);
    EXPECT_SAME_BITS(ma.metrics.nrmse, mb.metrics.nrmse);
    EXPECT_SAME_BITS(ma.metrics.e_max, mb.metrics.e_max);
    EXPECT_SAME_BITS(ma.metrics.pearson, mb.metrics.pearson);
    EXPECT_SAME_BITS(ma.metrics.e_nmax, mb.metrics.e_nmax);
    EXPECT_SAME_BITS(ma.metrics.psnr, mb.metrics.psnr);
    EXPECT_EQ(ma.metrics.points, mb.metrics.points);
    EXPECT_SAME_BITS(ma.rmsz_original, mb.rmsz_original);
    EXPECT_SAME_BITS(ma.rmsz_reconstructed, mb.rmsz_reconstructed);
    EXPECT_SAME_BITS(ma.rmsz_diff, mb.rmsz_diff);
    EXPECT_SAME_BITS(ma.enmax_ratio, mb.enmax_ratio);
    EXPECT_EQ(ma.rmsz_in_distribution, mb.rmsz_in_distribution);
    EXPECT_EQ(ma.rho_pass, mb.rho_pass);
    EXPECT_EQ(ma.rmsz_pass, mb.rmsz_pass);
    EXPECT_EQ(ma.enmax_pass, mb.enmax_pass);
  }
}

inline void expect_identical(const core::SuiteResults& x, const core::SuiteResults& y) {
  ASSERT_EQ(x.variant_names, y.variant_names);
  ASSERT_EQ(x.variables.size(), y.variables.size());
  for (std::size_t i = 0; i < x.variables.size(); ++i) {
    const core::VariableResult& a = x.variables[i];
    const core::VariableResult& b = y.variables[i];
    EXPECT_EQ(a.variable, b.variable);
    EXPECT_EQ(a.test_members, b.test_members);
    EXPECT_EQ(a.grib_decimal_scale, b.grib_decimal_scale);
    EXPECT_EQ(a.grib_tuning_passed, b.grib_tuning_passed);
    EXPECT_SAME_BITS(a.netcdf4_cr, b.netcdf4_cr);
    EXPECT_SAME_BITS(a.fpzip32_cr, b.fpzip32_cr);
    ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
    for (std::size_t v = 0; v < a.verdicts.size(); ++v) {
      SCOPED_TRACE("variable " + a.variable + ", variant " + a.verdicts[v].codec);
      expect_same_verdict(a.verdicts[v], b.verdicts[v]);
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

}  // namespace cesm::testsupport
