#pragma once
// Per-variable customization: the "hybrid" methods of §5.4 (Tables 7–8).
//
// For each of the four families, each variable gets the most aggressive
// variant of that family that passes all four acceptance tests
// (comp::hybrid_candidates); variables no lossy variant can handle fall
// back to the family's lossless stand-in (comp::lossless_stand_in).
// Variables whose processing failed are left out. The construction reuses
// the verdicts from a SuiteResults sweep, exactly as the paper derives
// Table 7 from the experiments behind Table 6.

#include <map>
#include <string>
#include <vector>

#include "core/suite.h"

namespace cesm::core {

/// One variable's chosen variant within a family.
struct HybridSelection {
  std::string variable;
  std::string variant;        ///< chosen variant (possibly "NetCDF-4"/"fpzip-32")
  double cr = 1.0;
  double pearson = 1.0;
  double nrmse = 0.0;
  double enmax = 0.0;
  bool lossless_fallback = false;
};

/// Table 7 column (plus the Table 8 composition) for one family.
struct HybridSummary {
  std::string family;
  double avg_cr = 1.0;
  double best_cr = 1.0;
  double worst_cr = 1.0;
  double avg_pearson = 1.0;
  double avg_nrmse = 0.0;
  double avg_enmax = 0.0;
  std::map<std::string, std::size_t> variant_counts;  ///< Table 8 rows
  std::vector<HybridSelection> selections;
};

/// Build the hybrid method for `family` ("GRIB2", "ISABELA", "fpzip",
/// "APAX") or the all-lossless baseline ("NetCDF-4", the "NC" column).
/// Throws InvalidArgument for an unknown family or when no variable was
/// processed.
HybridSummary build_hybrid(const SuiteResults& results, const std::string& family);

/// All five Table 7 columns in paper order.
std::vector<HybridSummary> build_all_hybrids(const SuiteResults& results);

}  // namespace cesm::core
