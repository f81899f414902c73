#include "core/hybrid.h"

#include <algorithm>
#include <limits>
#include <span>

#include "util/error.h"

namespace cesm::core {

namespace {

HybridSelection select_for_variable(const SuiteResults& results, const VariableResult& var,
                                    std::span<const comp::VariantRow* const> candidates,
                                    const comp::VariantRow& stand_in) {
  HybridSelection sel;
  sel.variable = var.variable;

  // Among the family's passing variants, take the best (smallest) CR —
  // "we choose the variant of each method for each variable that yields
  // the best CR and passes all of our tests" (§5.4).
  const VariableVerdict* best = nullptr;
  for (const comp::VariantRow* row : candidates) {
    const VariableVerdict& verdict = var.verdicts[results.variant_index(row->name)];
    if (!verdict.all_pass()) continue;
    if (best == nullptr || verdict.mean_cr < best->mean_cr) best = &verdict;
  }

  if (best != nullptr) {
    sel.variant = best->codec;
    sel.cr = best->mean_cr;
    double p = 0.0, nr = 0.0, en = 0.0;
    for (const MemberEvaluation& e : best->members) {
      p += e.metrics.pearson;
      nr += e.metrics.nrmse;
      en += e.metrics.e_nmax;
    }
    const auto n = static_cast<double>(best->members.size());
    sel.pearson = p / n;
    sel.nrmse = nr / n;
    sel.enmax = en / n;
    return sel;
  }

  sel.variant = stand_in.name;
  sel.lossless_fallback = true;
  sel.cr = stand_in.name == "fpzip-32" ? var.fpzip32_cr : var.netcdf4_cr;
  sel.pearson = 1.0;
  sel.nrmse = 0.0;
  sel.enmax = 0.0;
  return sel;
}

}  // namespace

HybridSummary build_hybrid(const SuiteResults& results, const std::string& family) {
  const comp::VariantRow& stand_in = comp::lossless_stand_in(family);
  const std::vector<const comp::VariantRow*> candidates = comp::hybrid_candidates(family);
  HybridSummary summary;
  summary.family = family;

  double cr_sum = 0.0, p_sum = 0.0, nr_sum = 0.0, en_sum = 0.0;
  summary.best_cr = std::numeric_limits<double>::infinity();
  summary.worst_cr = -std::numeric_limits<double>::infinity();
  for (const VariableResult& var : results.variables) {
    if (var.processing_failed) continue;  // no verdicts to choose from
    HybridSelection sel = select_for_variable(results, var, candidates, stand_in);
    cr_sum += sel.cr;
    p_sum += sel.pearson;
    nr_sum += sel.nrmse;
    en_sum += sel.enmax;
    summary.best_cr = std::min(summary.best_cr, sel.cr);
    summary.worst_cr = std::max(summary.worst_cr, sel.cr);
    ++summary.variant_counts[sel.variant];
    summary.selections.push_back(std::move(sel));
  }
  CESM_REQUIRE(!summary.selections.empty());
  const auto n = static_cast<double>(summary.selections.size());
  summary.avg_cr = cr_sum / n;
  summary.avg_pearson = p_sum / n;
  summary.avg_nrmse = nr_sum / n;
  summary.avg_enmax = en_sum / n;
  return summary;
}

std::vector<HybridSummary> build_all_hybrids(const SuiteResults& results) {
  std::vector<HybridSummary> all;
  for (const char* family : {"GRIB2", "ISABELA", "fpzip", "APAX", "NetCDF-4"}) {
    all.push_back(build_hybrid(results, family));
  }
  return all;
}

}  // namespace cesm::core
