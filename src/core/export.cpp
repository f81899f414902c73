#include "core/export.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.h"

namespace cesm::core {

namespace {

void append_metrics(std::ostringstream& out, const VariableVerdict& verdict) {
  // Average the member evaluations (the suite tests several members). A
  // codec-error verdict whose fallback also failed has no evaluations at
  // all; emit zeros rather than 0/0 NaNs.
  double cr = verdict.mean_cr, pearson = 0.0, nrmse = 0.0, enmax = 0.0, rmsz_diff = 0.0;
  const auto n = static_cast<double>(verdict.members.size());
  if (verdict.members.empty()) {
    out << cr << ",0,0,0,0";
    return;
  }
  for (const MemberEvaluation& e : verdict.members) {
    pearson += e.metrics.pearson;
    nrmse += e.metrics.nrmse;
    enmax += e.metrics.e_nmax;
    rmsz_diff += e.rmsz_diff;
  }
  out << cr << ',' << pearson / n << ',' << nrmse / n << ',' << enmax / n << ','
      << rmsz_diff / n;
}

}  // namespace

std::string csv_field(const std::string& value) {
  // RFC 4180: a field containing the separator, a quote, or a line break
  // must be quoted, with embedded quotes doubled. Everything else passes
  // through verbatim, so numeric columns and plain names are unchanged.
  // This matters for error_message: codec exceptions routinely contain
  // commas ("format error: expected 4, got 2"), and a failpoint-armed run
  // used to shear such a row into extra columns.
  if (value.find_first_of(",\"\r\n") == std::string::npos) return value;
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted.push_back('"');
  for (const char c : value) {
    if (c == '"') quoted.push_back('"');
    quoted.push_back(c);
  }
  quoted.push_back('"');
  return quoted;
}

std::string suite_results_csv(const SuiteResults& results) {
  std::ostringstream out;
  out << "variable,is_3d,variant,cr,pearson,nrmse,e_nmax,rmsz_diff,"
         "rho_pass,rmsz_pass,enmax_pass,bias_pass,all_pass,"
         "bias_slope,bias_intercept,bias_slope_distance,grib_decimal_scale,"
         "codec_error,fallback_codec,error_message\n";
  out.precision(10);
  const auto row = [&](const VariableResult& var, const std::string& variant,
                       const VariableVerdict& verdict) {
    out << csv_field(var.variable) << ',' << (var.is_3d ? 1 : 0) << ','
        << csv_field(variant) << ',';
    append_metrics(out, verdict);
    out << ',' << verdict.rho_pass << ',' << verdict.rmsz_pass << ','
        << verdict.enmax_pass << ',' << verdict.bias_pass << ',' << verdict.all_pass()
        << ',' << verdict.bias.fit.slope << ',' << verdict.bias.fit.intercept << ','
        << verdict.bias.slope_distance << ',' << var.grib_decimal_scale << ','
        << verdict.codec_error << ',' << csv_field(verdict.fallback_codec) << ','
        << csv_field(verdict.error_message) << '\n';
  };
  for (const VariableResult& var : results.variables) {
    if (var.processing_failed) {
      // No verdicts were recorded, but the variable must not vanish from
      // the table: one row with an empty variant, every pass flag 0 and
      // the error that stopped it.
      VariableVerdict failed;
      failed.error_message = var.error_message;
      row(var, "", failed);
      continue;
    }
    for (std::size_t vi = 0; vi < results.variant_names.size(); ++vi) {
      row(var, results.variant_names[vi], var.verdicts[vi]);
    }
  }
  return out.str();
}

std::string hybrid_selections_csv(std::span<const HybridSummary> hybrids) {
  std::ostringstream out;
  out << "family,variable,variant,cr,pearson,nrmse,e_nmax,lossless_fallback\n";
  out.precision(10);
  for (const HybridSummary& h : hybrids) {
    for (const HybridSelection& sel : h.selections) {
      out << csv_field(h.family) << ',' << csv_field(sel.variable) << ','
          << csv_field(sel.variant) << ',' << sel.cr << ',' << sel.pearson << ','
          << sel.nrmse << ',' << sel.enmax << ',' << (sel.lossless_fallback ? 1 : 0)
          << '\n';
    }
  }
  return out.str();
}

void write_text_file(const std::string& path, const std::string& contents) {
  // Temp + rename (the DiskCache discipline): a crash, ENOSPC, or a
  // drained Ctrl-C between open and close can no longer leave a
  // half-written file under the final name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) throw IoError("cannot open for writing: " + tmp);
    f << contents;
    f.flush();
    if (!f) {
      f.close();
      std::remove(tmp.c_str());
      throw IoError("write failed: " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    throw IoError("rename failed: " + path + ": " + ec.message());
  }
}

}  // namespace cesm::core
