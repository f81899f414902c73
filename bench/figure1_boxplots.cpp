// Reproduces paper Figure 1: box plots of (a) the normalized maximum
// pointwise error and (b) the normalized RMSE over all 170 variable
// datasets, one box per compression variant. Rendered as numeric quartile
// tables plus ASCII boxes on a log10 axis (the paper's y-axes are log).

#include <cstdio>
#include <map>

#include "common.h"
#include "core/export.h"
#include "core/report.h"

int main(int argc, char** argv) {
  using namespace cesm;
  bench::Options options = bench::Options::parse(argc, argv);
  options.run_bias = false;  // Figure 1 only needs §4.2 error metrics
  const climate::EnsembleGenerator ens = bench::make_ensemble(options);
  const std::vector<std::string> variables =
      bench::select_variables(ens, options.var_limit);

  std::printf(
      "Figure 1: Normalized maximum pointwise and normalized RMS errors for all\n"
      "%zu variable datasets.\n", variables.size());
  std::printf("(grid: %zu columns x %zu levels, %zu members)\n\n", ens.grid().columns(),
              ens.grid().levels(), options.members);

  const core::SuiteResults results =
      core::run_suite(ens, bench::suite_config(options), variables);

  // Collect per-variant distributions over variables (mean over the test
  // members of each variable, like the paper's single-file measurements).
  std::map<std::string, std::vector<double>> enmax, nrmse;
  for (const core::VariableResult& var : results.variables) {
    for (std::size_t vi = 0; vi < results.variant_names.size(); ++vi) {
      double e = 0.0, n = 0.0;
      for (const core::MemberEvaluation& m : var.verdicts[vi].members) {
        e += m.metrics.e_nmax;
        n += m.metrics.nrmse;
      }
      const auto cnt = static_cast<double>(var.verdicts[vi].members.size());
      enmax[results.variant_names[vi]].push_back(e / cnt);
      nrmse[results.variant_names[vi]].push_back(n / cnt);
    }
  }

  const auto render = [&](const char* title,
                          std::map<std::string, std::vector<double>>& data) {
    std::printf("%s\n", title);
    std::vector<core::LabelledBox> boxes;
    for (const std::string& variant : comp::paper_variant_names()) {
      core::LabelledBox b;
      b.label = variant;
      b.box = stats::box_summary(data[variant]);
      boxes.push_back(std::move(b));
    }
    std::fputs(core::render_boxplot_log(boxes).c_str(), stdout);
    std::printf("\n");
  };
  render("(a) Normalized maximum pointwise error", enmax);
  render("(b) Normalized RMSE", nrmse);

  // Machine-readable series for external plotting.
  std::string csv = "variant,variable,e_nmax,nrmse\n";
  for (const core::VariableResult& var : results.variables) {
    for (std::size_t vi = 0; vi < results.variant_names.size(); ++vi) {
      double e = 0.0, n = 0.0;
      for (const core::MemberEvaluation& m : var.verdicts[vi].members) {
        e += m.metrics.e_nmax;
        n += m.metrics.nrmse;
      }
      const auto cnt = static_cast<double>(var.verdicts[vi].members.size());
      csv += results.variant_names[vi] + "," + var.variable + "," +
             core::format_sci(e / cnt, 6) + "," + core::format_sci(n / cnt, 6) + "\n";
    }
  }
  core::write_text_file("figure1_series.csv", csv);
  std::printf("per-(variant,variable) series written to figure1_series.csv\n\n");

  std::printf(
      "Paper shape checks: within each family the boxes shift upward with\n"
      "compression level; each variant spans several orders of magnitude across\n"
      "the diverse variables — the motivation for per-variable treatment.\n");
  bench::write_profile(options);
  return 0;
}
