// Reproduces paper Table 3: NRMS errors (and compression ratio CR) between
// the original and reconstructed datasets for U, FSDSC, Z3 and CCN3 across
// all nine lossy variants.

#include <cstdio>
#include <map>

#include "common.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace cesm;
  const bench::Options options = bench::Options::parse(argc, argv, /*paper_scale=*/true);
  const climate::EnsembleGenerator eval_ens = bench::make_ensemble(options);

  bench::Options tuning_options = options;
  tuning_options.grid = climate::GridSpec::reduced();
  const climate::EnsembleGenerator tuning_ens = bench::make_ensemble(tuning_options);

  std::printf("Table 3: NRMS errors (and CR) between original and reconstructed datasets.\n");
  std::printf("(grid: %zu columns x %zu levels, member 1)\n\n", eval_ens.grid().columns(),
              eval_ens.grid().levels());

  std::map<std::string, std::map<std::string, bench::VariantOutcome>> cells;
  for (const char* variable : climate::kSpotlightVariables) {
    for (bench::VariantOutcome& out :
         bench::evaluate_variants(eval_ens, tuning_ens, variable, 1)) {
      cells[variable][out.variant] = out;
    }
  }

  core::TextTable table({"Comp. Method", "U", "FSDSC", "Z3", "CCN3"});
  for (const std::string& variant : comp::paper_variant_names()) {
    std::vector<std::string> row = {variant};
    for (const char* variable : climate::kSpotlightVariables) {
      const bench::VariantOutcome& out = cells[variable][variant];
      row.push_back(core::format_sci(out.metrics.nrmse) + " (" + bench::paper_cr(out.cr) +
                    ")");
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nPaper shape checks: errors rise with compression within each family;\n"
      "fpzip-16 has the lowest CRs and the largest errors; APAX rates hit .50/.25/.20;\n"
      "ISABELA variants sit close together in CR (index overhead dominates).\n");
  bench::write_profile(options);
  return 0;
}
