#pragma once
// Shared infrastructure for the table/figure reproduction harnesses.
//
// Every bench accepts:
//   --scale=reduced|paper   grid size (default depends on the bench)
//   --members=N             ensemble size (default 101, the paper's)
//   --vars=N                limit the variable census (0 = all 170)
//   --no-bias               skip the all-member bias sweep (fast preview)
//   --seed=N                test-member selection seed
//   --threads=N             worker count for the global scheduler (default:
//                           CESM_THREADS env, then hardware concurrency)
//   --quick                 CI smoke mode (each bench shrinks its workload)
//   --out=PATH              override the bench's JSON output path
//   --profile=out.json      enable cesm::trace, write the JSON span tree
//                           to out.json and a text tree to stderr

#include <cstdint>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "core/suite.h"

namespace cesm::bench {

struct Options {
  climate::GridSpec grid = climate::GridSpec::reduced();
  bool paper_scale = false;
  std::size_t members = 101;
  std::size_t var_limit = 0;  ///< 0 = whole catalog
  bool run_bias = true;
  std::uint64_t seed = 0x73575eedull;
  std::size_t threads = 0;   ///< 0 = CESM_THREADS env, then hardware concurrency
  bool quick = false;        ///< CI smoke mode
  std::string out_path;      ///< empty = the bench's default output file
  std::string profile_path;  ///< empty = tracing stays disabled

  /// Parse argv; prints usage and exits on --help or bad arguments.
  /// --profile=PATH additionally enables cesm::trace collection.
  static Options parse(int argc, char** argv,
                       bool default_paper_scale = false);
};

/// Ensemble generator for the chosen options (shared latent settings).
climate::EnsembleGenerator make_ensemble(const Options& options);

/// First `limit` variable names of the catalog (all when limit == 0),
/// always including the four spotlight variables.
std::vector<std::string> select_variables(const climate::EnsembleGenerator& ens,
                                          std::size_t limit);

/// Suite configuration matching the options.
core::SuiteConfig suite_config(const Options& options);

/// When --profile was given: publish the scheduler's work-distribution
/// counters (sched.*), write the JSON profile to the requested path, and
/// print the span tree to stderr. No-op otherwise. Call at the end of a
/// bench's main().
void write_profile(const Options& options);

/// CR in the paper's table style: ".50" for 0.50 (full form when >= 1).
std::string paper_cr(double cr);

/// One variant's outcome on one member field (Tables 3-5 cell data).
struct VariantOutcome {
  std::string variant;
  core::ErrorMetrics metrics;
  double cr = 1.0;
  double compress_seconds = 0.0;
  double reconstruct_seconds = 0.0;
};

/// Round-trip all nine paper variants on `member`'s field of `variable`
/// from `eval_ens`. The GRIB2 decimal scale is tuned with the RMSZ-guided
/// procedure on `tuning_ens` (a reduced-grid ensemble keeps that cheap —
/// D depends on the variable's range, not the resolution).
/// `timing_repeats` > 0 additionally measures median wall times.
std::vector<VariantOutcome> evaluate_variants(const climate::EnsembleGenerator& eval_ens,
                                              const climate::EnsembleGenerator& tuning_ens,
                                              const std::string& variable,
                                              std::uint32_t member,
                                              int timing_repeats = 0);

}  // namespace cesm::bench
