#pragma once
// Whole-catalog verification driver.
//
// Runs the full §4 methodology for every variable in the ensemble against
// the paper's nine lossy variants, producing the raw material of Tables
// 3, 4, 6 and Figures 1–4 in a single sweep:
//   * per variable: characterization, RMSZ-guided GRIB2 decimal scale,
//     nine VariableVerdicts (tests 1–4 each), and the lossless baselines;
//   * aggregation helpers: per-method pass counts (Table 6) and the
//     per-variant error distributions (Figure 1).

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "climate/ensemble.h"
#include "compress/variants.h"
#include "core/grib_tuning.h"
#include "core/metrics.h"
#include "core/pvt.h"

namespace cesm::core {

struct SuiteConfig {
  std::size_t test_member_count = 3;     ///< paper: "generally three is sufficient"
  std::uint64_t member_seed = 0x73575eedull;
  bool run_bias = true;                  ///< bias test compresses all members
  PvtThresholds thresholds;
  int grib_significant_digits = 4;
  /// How far past the magnitude heuristic the RMSZ-guided D search may
  /// go. A small budget mirrors the paper: even with RMSZ-guided tuning,
  /// GRIB2 cannot satisfy the tests on large-range variables (§5.3).
  int grib_max_extra_digits = 2;

  /// Nonzero: cut the resident members on chunk_partition (core/pvt.h)
  /// with this target chunk size, so every codec the suite measures
  /// (variants, GRIB2 tuning attempts, lossless baselines, fallback
  /// stand-ins) encodes chunk by chunk and each member's CR counts the
  /// chunk index (chunked_stored_bytes). It is the partition the
  /// out-of-core leg streams through, so an in-core run with the same
  /// value produces bit-identical verdicts and CRs to
  /// run_variable_streaming (core/ooc.h). 0 (the default) verifies whole
  /// members. Must be >= kMinChunkElems (1024) when set.
  std::size_t chunk_elems = 0;

  // --- variant sweep (docs/codecs.md) ---
  /// 1 (the default): one member-major pass per variable walks each
  /// member's chunks once for all nine variants (PvtVerifier::verify_all).
  /// Any other value: one concurrent task per plan-sharing run of variants
  /// (plan_run_ends, pvt.h), all on the variable's one verifier. Results
  /// land in fixed catalog-order slots, so the suite CSV is byte-identical
  /// at every setting and worker count.
  std::size_t variant_jobs = 1;

  // --- robustness policy (exercised by cesm::fail injection) ---
  /// When a lossy variant's verify throws, record a codec-error verdict
  /// and re-verify with the family's lossless stand-in
  /// (comp::lossless_stand_in), mirroring the §5 hybrid fallback.
  bool lossless_fallback = true;
  /// Re-run a variable this many times after a whole-variable failure
  /// before giving up on it (one-shot faults clear on retry).
  std::size_t variable_retry_limit = 1;
  /// A variable that still fails after retries is marked
  /// processing_failed instead of aborting the whole suite.
  bool continue_on_variable_error = true;
};

/// Everything measured for one variable.
struct VariableResult {
  std::string variable;
  bool is_3d = false;
  std::optional<float> fill;
  Characterization character;
  int grib_decimal_scale = 0;
  bool grib_tuning_passed = false;
  std::vector<VariableVerdict> verdicts;  ///< one per variant, paper order
  double netcdf4_cr = 1.0;                ///< lossless deflate CR (probe member)
  double fpzip32_cr = 1.0;                ///< fpzip lossless CR (probe member)
  std::vector<std::size_t> test_members;
  /// The variable could not be processed at all (even after retries);
  /// `verdicts` is empty and downstream aggregation skips it.
  bool processing_failed = false;
  std::string error_message;
};

/// Table 6 row.
struct MethodTally {
  std::string codec;
  std::size_t rho = 0;
  std::size_t rmsz = 0;
  std::size_t enmax = 0;
  std::size_t bias = 0;
  std::size_t all = 0;
};

struct SuiteResults {
  std::vector<std::string> variant_names;
  std::vector<VariableResult> variables;

  /// Per-method pass counts over all variables (Table 6). Variables with
  /// processing_failed set are excluded.
  [[nodiscard]] std::vector<MethodTally> tally() const;

  /// Variables whose processing failed outright (see VariableResult).
  [[nodiscard]] std::size_t failed_variable_count() const;

  /// Index of a variant in variant_names by its table name; throws if absent.
  [[nodiscard]] std::size_t variant_index(std::string_view name) const;

  [[nodiscard]] const VariableResult& variable(const std::string& name) const;
};

/// The variable set a suite run covers: the whole catalog when
/// `variables` is empty, otherwise the named specs in the given order
/// (throws on an unknown name). Shared by run_suite and
/// run_suite_streaming so both legs agree on ordering — the property the
/// byte-identical CSV claims rest on.
std::vector<const climate::VariableSpec*> resolve_suite_specs(
    const climate::EnsembleGenerator& ensemble,
    const std::vector<std::string>& variables);

/// Run the suite over `variables` (whole catalog when empty). Work is
/// parallelized across variables. This is the expensive entry point: the
/// bias test alone compresses members x variants streams per variable.
SuiteResults run_suite(const climate::EnsembleGenerator& ensemble,
                       const SuiteConfig& config = {},
                       std::vector<std::string> variables = {});

/// Single-variable version (used by the spotlight benches and tests).
VariableResult run_variable(const climate::EnsembleGenerator& ensemble,
                            const climate::VariableSpec& spec,
                            const SuiteConfig& config = {});

// --- per-variable steps shared by run_variable and run_variable_streaming,
// which differ only in the chunk source they build ---

/// Count the variable, reject a zero test_member_count, a negative
/// grib_max_extra_digits or a grib_significant_digits outside [1, 12]
/// (InvalidArgument), and hit the "suite.variable" failpoint — before any
/// work on the variable.
void begin_variable(const climate::VariableSpec& spec, const SuiteConfig& config);

/// Everything measured for one variable once its chunk source is ready:
/// member picks, characterization and lossless baselines (memoized on the
/// source's stats, EnsembleView::probe_ratios), RMSZ-guided GRIB2 tuning,
/// and one verdict per paper variant from the member-major sweep, which
/// takes GRIB2's test-member evaluations from the tuning (a variant whose
/// encode or decode throws gets a codec-error verdict).
VariableResult verify_variable(const climate::VariableSpec& spec, const ChunkSource& source,
                               const SuiteConfig& config);

/// The suite's containment policy around one variable run: retry `run`
/// after a failure (one-shot injected faults clear themselves), and when
/// retries are exhausted return a processing_failed marker instead of
/// tearing down the rest of the sweep. InvalidArgument always propagates.
VariableResult run_guarded(const climate::VariableSpec& spec, const SuiteConfig& config,
                           const std::function<VariableResult()>& run);

/// Derive results.variant_names from the verdicts actually recorded (and
/// check every processed variable agrees on them) — shared by run_suite
/// and run_suite_streaming so tally() pairs names with verdicts the same
/// way on both legs.
void derive_variant_names(SuiteResults& results);

}  // namespace cesm::core
