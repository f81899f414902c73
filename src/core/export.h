#pragma once
// Structured export of suite results for external analysis (R/pandas) —
// the verification methodology feeds climate scientists' own tooling, so
// results must leave the library in a neutral format.

#include <string>

#include "core/hybrid.h"
#include "core/suite.h"

namespace cesm::core {

/// Escape one CSV field per RFC 4180: fields containing a comma, quote,
/// CR or LF are quoted with embedded quotes doubled; all other values
/// pass through unchanged. Applied to every free-text column (variant
/// names, fallback codecs, and especially error messages, which contain
/// commas whenever a codec exception mentions sizes or offsets).
std::string csv_field(const std::string& value);

/// One CSV row per (variable, variant): test outcomes, CR and error
/// metrics; a processing_failed variable gets one row with an empty
/// variant, all pass flags 0 and its error_message. Columns:
///   variable,is_3d,variant,cr,pearson,nrmse,e_nmax,rmsz_diff,
///   rho_pass,rmsz_pass,enmax_pass,bias_pass,all_pass,
///   bias_slope,bias_intercept,bias_slope_distance,grib_decimal_scale,
///   codec_error,fallback_codec,error_message
std::string suite_results_csv(const SuiteResults& results);

/// One CSV row per (family, variable) hybrid selection. Columns:
///   family,variable,variant,cr,pearson,nrmse,e_nmax,lossless_fallback
std::string hybrid_selections_csv(std::span<const HybridSummary> hybrids);

/// Write a string to a file atomically (temp + rename; throws IoError).
/// Readers — and interrupted runs — see either the old file or the
/// complete new one, never a torn intermediate.
void write_text_file(const std::string& path, const std::string& contents);

}  // namespace cesm::core
