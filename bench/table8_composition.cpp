// Reproduces paper Table 8: the number of variables assigned to each
// variant of each compression method when forming the Table 7 hybrids
// (counts sum to the variable census per family).

#include <cstdio>

#include "common.h"
#include "compress/variants.h"
#include "core/hybrid.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace cesm;
  const bench::Options options = bench::Options::parse(argc, argv);
  const climate::EnsembleGenerator ens = bench::make_ensemble(options);
  const std::vector<std::string> variables =
      bench::select_variables(ens, options.var_limit);

  std::printf(
      "Table 8: Number of variables (out of %zu) that each variant of each\n"
      "compression method uses to form the hybrid methods of Table 7.\n",
      variables.size());
  std::printf("(grid: %zu columns x %zu levels, %zu members)\n\n", ens.grid().columns(),
              ens.grid().levels(), options.members);

  const core::SuiteResults results =
      core::run_suite(ens, bench::suite_config(options), variables);

  core::TextTable table({"Method", "Variant", "Number of Variables"});
  for (const char* family : {"GRIB2", "ISABELA", "fpzip", "APAX"}) {
    const core::HybridSummary h = core::build_hybrid(results, family);
    bool first = true;
    // Print lossy variants most-aggressive-first, lossless fallback last,
    // matching the paper's table layout.
    std::vector<const comp::VariantRow*> order = comp::hybrid_candidates(family);
    order.push_back(&comp::lossless_stand_in(family));
    for (const comp::VariantRow* row : order) {
      const std::string variant(row->name);
      const auto it = h.variant_counts.find(variant);
      const std::size_t count = it == h.variant_counts.end() ? 0 : it->second;
      table.add_row({first ? family : "", variant, std::to_string(count)});
      first = false;
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nPaper shape checks: each family's counts sum to the census; most\n"
      "variables use the most aggressive variant that passes, a minority need\n"
      "the lossless fallback (NetCDF-4 / fpzip-32).\n");
  bench::write_profile(options);
  return 0;
}
