// Reproduces paper Table 5: compression and reconstruction timings (in
// seconds) and compression ratios for variables U (3-D) and FSDSC (2-D).
// The (*) marker flags variants whose reconstruction did not pass the
// paper's quality tests for that variable, as in the original table.

#include <cstdio>
#include <map>

#include "common.h"
#include "core/report.h"
#include "core/suite.h"

int main(int argc, char** argv) {
  using namespace cesm;
  const bench::Options options = bench::Options::parse(argc, argv, /*paper_scale=*/true);
  const climate::EnsembleGenerator eval_ens = bench::make_ensemble(options);

  bench::Options tuning_options = options;
  tuning_options.grid = climate::GridSpec::reduced();
  const climate::EnsembleGenerator tuning_ens = bench::make_ensemble(tuning_options);

  std::printf(
      "Table 5: Compression and reconstruction timings (seconds) and CRs for\n"
      "variables U (3-D) and FSDSC (2-D). (*) = failed the quality tests.\n");
  std::printf("(grid: %zu columns x %zu levels, member 1, median of 3 runs)\n\n",
              eval_ens.grid().columns(), eval_ens.grid().levels());

  // Quality pass/fail per variant from the reduced-grid ensemble suite.
  core::SuiteConfig cfg = bench::suite_config(options);
  const core::SuiteResults suite = core::run_suite(tuning_ens, cfg, {"U", "FSDSC"});

  std::map<std::string, std::vector<bench::VariantOutcome>> outcomes;
  for (const char* variable : {"U", "FSDSC"}) {
    outcomes[variable] =
        bench::evaluate_variants(eval_ens, tuning_ens, variable, 1, /*timing_repeats=*/3);
  }

  core::TextTable table({"Comp. Method", "U comp.", "U reconst.", "U CR", "FSDSC comp.",
                         "FSDSC reconst.", "FSDSC CR"});
  const std::vector<std::string> variants = comp::paper_variant_names();
  for (std::size_t vi = 0; vi < variants.size(); ++vi) {
    const std::string& variant = variants[vi];
    std::vector<std::string> row = {variant};
    for (const char* variable : {"U", "FSDSC"}) {
      const bench::VariantOutcome& out = outcomes[variable][vi];
      const core::VariableVerdict& verdict =
          suite.variable(variable).verdicts[suite.variant_index(variant)];
      row.push_back(core::format_fixed(out.compress_seconds, 3));
      row.push_back(core::format_fixed(out.reconstruct_seconds, 3));
      row.push_back(bench::paper_cr(out.cr) + (verdict.all_pass() ? "" : "(*)"));
    }
    table.add_row(std::move(row));
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nPaper shape checks: APAX is the fastest method (sometimes by orders of\n"
      "magnitude); ISABELA is the slowest (windowed sorting + spline fitting);\n"
      "the 3-D U costs more than the 2-D FSDSC.\n");
  bench::write_profile(options);
  return 0;
}
