#include "core/port_verification.h"

#include <algorithm>
#include <tuple>

#include "stats/descriptive.h"
#include "util/error.h"

namespace cesm::core {

PortVerdict verify_port_variable(const EnsembleStats& trusted,
                                 std::span<const climate::Field> new_runs,
                                 const PortVerificationOptions& options) {
  CESM_REQUIRE(!new_runs.empty());
  PortVerdict verdict;
  verdict.variable = trusted.member(0).name;

  std::tie(verdict.rmsz_lo, verdict.rmsz_hi) = trusted.rmsz_range();
  const double slack = options.rmsz_range_slack * (verdict.rmsz_hi - verdict.rmsz_lo);

  const auto& gmeans = trusted.global_means();
  const auto [gm_lo_it, gm_hi_it] = std::minmax_element(gmeans.begin(), gmeans.end());
  const double gm_lo = *gm_lo_it;
  const double gm_hi = *gm_hi_it;
  const double gm_slack = options.mean_shift_tolerance * (gm_hi - gm_lo);

  verdict.rmsz_pass = true;
  verdict.global_mean_pass = true;
  for (const climate::Field& run : new_runs) {
    CESM_REQUIRE(run.size() == trusted.member(0).size());
    // The new run is not a member of the trusted ensemble; score it
    // against the sub-ensemble excluding member 0 (any exclusion gives an
    // (M-1)-member reference).
    const double rmsz = trusted.rmsz_of(0, run.data);
    verdict.worst_new_rmsz = std::max(verdict.worst_new_rmsz, rmsz);
    if (rmsz < verdict.rmsz_lo - slack || rmsz > verdict.rmsz_hi + slack) {
      verdict.rmsz_pass = false;
    }

    const std::vector<std::uint8_t> mask = run.valid_mask();
    const double gm = stats::mean(run.data, mask);
    const double shift = gm < gm_lo ? gm_lo - gm : (gm > gm_hi ? gm - gm_hi : 0.0);
    verdict.worst_mean_shift = std::max(verdict.worst_mean_shift, shift);
    if (shift > gm_slack) verdict.global_mean_pass = false;
  }
  return verdict;
}

std::vector<PortVerdict> verify_port(const climate::EnsembleGenerator& trusted,
                                     std::span<const std::uint32_t> new_member_ids,
                                     std::vector<std::string> variables,
                                     std::size_t variable_limit,
                                     const PortVerificationOptions& options) {
  CESM_REQUIRE(!new_member_ids.empty());
  if (variables.empty()) {
    for (const climate::VariableSpec& v : trusted.catalog()) {
      if (variables.size() >= variable_limit) break;
      variables.push_back(v.name);
    }
  }

  std::vector<PortVerdict> verdicts;
  for (const std::string& name : variables) {
    const climate::VariableSpec& spec = trusted.variable(name);
    const EnsembleStats stats(trusted.ensemble_fields(spec));
    std::vector<climate::Field> runs;
    runs.reserve(new_member_ids.size());
    for (std::uint32_t id : new_member_ids) {
      runs.push_back(trusted.field(spec, id));
    }
    verdicts.push_back(verify_port_variable(stats, runs, options));
  }
  return verdicts;
}

}  // namespace cesm::core
