// cesmtool — command-line front end for the library's file workflow.
//
//   cesmtool generate <out.cnc> [--members=1] [--member=N] [--vars=N] [--scale=paper]
//       synthesize a CAM-like history file
//   cesmtool info <file.cnc>
//       list dimensions, variables, attributes and stored sizes
//   cesmtool compress <in.cnc> <out.cnc> --codec=NAME [--min-rho=0.99999]
//       per-variable codec storage; falls back to lossless when the
//       reconstruction misses the quality bar (paper §5.4's hybrid idea)
//   cesmtool decompress <in.cnc> <out.cnc>
//       rewrite every variable as raw float storage
//   cesmtool diff <a.cnc> <b.cnc>
//       §4.2 error metrics per shared variable
//   cesmtool suite [--full-grid] [--scale=paper] [--members=N] [--vars=N] ...
//       the §4 verification suite; --full-grid streams every variable
//       chunk-by-chunk under the CESM_MEM_MB budget instead of holding
//       the ensemble in memory

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "climate/history.h"
#include "compress/variants.h"
#include "core/export.h"
#include "core/metrics.h"
#include "core/ooc.h"
#include "core/report.h"
#include "core/suite.h"
#include "ncio/dataset.h"
#include "util/env.h"
#include "util/memory.h"
#include "util/signals.h"

namespace {

using namespace cesm;

int usage() {
  std::fprintf(stderr,
               "usage: cesmtool <generate|info|compress|decompress|diff|suite> ...\n"
               "  generate <out.cnc> [--member=N] [--vars=N] [--scale=paper]\n"
               "  info <file.cnc>\n"
               "  compress <in.cnc> <out.cnc> --codec=NAME [--min-rho=R]\n"
               "  decompress <in.cnc> <out.cnc>\n"
               "  diff <a.cnc> <b.cnc>\n"
               "  suite [--full-grid] [--scale=paper] [--members=N] [--vars=N]\n"
               "        [--chunk=N] [--spill-dir=DIR] [--jobs=N] [--reuse-spill]\n"
               "        [--spill-budget-mb=N] [--variant-jobs=N] [--no-bias]\n"
               "        [--out=results.csv]\n"
               "    --full-grid streams each variable chunk-by-chunk (out-of-core)\n"
               "    --chunk=N cuts members into chunks of about N values (default\n"
               "    65536 with --full-grid; in-core, whole members)\n"
               "    --jobs=N runs N variables concurrently under one shared\n"
               "    CESM_MEM_MB budget (0 = one per worker); --reuse-spill\n"
               "    content-addresses spill files so a later run skips synthesis\n"
               "    under the CESM_MEM_MB logical budget; verdicts are bitwise\n"
               "    identical to the in-core pipeline on the same chunk partition\n"
               "    --variant-jobs=N picks the variant-sweep schedule per variable\n"
               "    (1 = one member-major pass over all variants, any other value\n"
               "    = one task per plan-sharing run); the CSV is byte-identical at\n"
               "    every setting\n");
  return 2;
}

bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// Value of the option `prefix` (e.g. "--out="), or nullptr when absent.
const char* find_opt(int argc, char** argv, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, n) == 0) return argv[i] + n;
  }
  return nullptr;
}

std::string opt_value(int argc, char** argv, const char* prefix) {
  const char* v = find_opt(argc, argv, prefix);
  return v != nullptr ? v : "";
}

/// Reads the integer option `prefix` into `out`, which keeps its default
/// when the option is absent. A present value must be a whole decimal
/// number in [0, max] (util::parse_u64_arg); anything else is reported and
/// returns false, and the command exits 2 — a typo must never run with a
/// different number than the one meant.
template <typename T>
bool uint_opt(int argc, char** argv, const char* prefix, T& out,
              std::uint64_t max = std::numeric_limits<T>::max()) {
  const char* text = find_opt(argc, argv, prefix);
  if (text == nullptr) return true;
  const std::optional<std::uint64_t> v = util::parse_u64_arg(text);
  if (!v || *v > max) {
    std::fprintf(stderr, "cesmtool: bad %s value \"%s\": expected an integer in [0, %llu]\n",
                 prefix, text, static_cast<unsigned long long>(max));
    return false;
  }
  out = static_cast<T>(*v);
  return true;
}

/// Reads --min-rho: the whole value must be one finite number in [0, 1].
/// A garbage value must not read as 0, which would pass every variable.
bool rho_opt(int argc, char** argv, double& out) {
  const char* text = find_opt(argc, argv, "--min-rho=");
  if (text == nullptr) return true;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || std::isspace(static_cast<unsigned char>(*text)) ||
      !std::isfinite(v) || v < 0.0 || v > 1.0) {
    std::fprintf(stderr,
                 "cesmtool: bad --min-rho value \"%s\": expected a number in [0, 1]\n", text);
    return false;
  }
  out = v;
  return true;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string out = argv[2];
  std::uint32_t member = 1;
  std::size_t var_limit = 0;
  if (!uint_opt(argc, argv, "--member=", member) ||
      !uint_opt(argc, argv, "--vars=", var_limit)) {
    return 2;
  }
  const bool paper = opt_value(argc, argv, "--scale=") == "paper";

  climate::EnsembleSpec spec;
  spec.grid = paper ? climate::GridSpec::paper() : climate::GridSpec::reduced();
  spec.members = 3;
  const climate::EnsembleGenerator ens(spec);

  std::vector<std::string> vars;
  for (const climate::VariableSpec& v : ens.catalog()) {
    if (vars.size() >= var_limit) break;
    vars.push_back(v.name);
  }
  const ncio::Dataset ds = climate::make_history(ens, member, vars);
  ds.write_file(out);
  std::printf("wrote %s: %zu variables, member %u, %zu columns x %zu levels\n",
              out.c_str(), ds.variables().size(), member, ens.grid().columns(),
              ens.grid().levels());
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const ncio::Dataset ds = ncio::Dataset::read_file(argv[2]);

  std::printf("attributes:\n");
  for (const auto& [name, value] : ds.attrs()) {
    if (const auto* s = std::get_if<std::string>(&value)) {
      std::printf("  %s = \"%s\"\n", name.c_str(), s->c_str());
    } else if (const auto* i = std::get_if<std::int64_t>(&value)) {
      std::printf("  %s = %lld\n", name.c_str(), static_cast<long long>(*i));
    } else {
      std::printf("  %s = %g\n", name.c_str(), std::get<double>(value));
    }
  }
  std::printf("dimensions:\n");
  for (const ncio::Dimension& d : ds.dimensions()) {
    std::printf("  %s = %llu\n", d.name.c_str(), static_cast<unsigned long long>(d.length));
  }

  core::TextTable table({"variable", "dtype", "storage", "elements", "stored bytes", "CR"});
  for (const ncio::Variable& v : ds.variables()) {
    const std::size_t elems = v.element_count();
    const std::size_t raw = elems * (v.dtype == ncio::DataType::kFloat32 ? 4 : 8);
    const std::size_t stored = ds.stored_payload_bytes(v.name);
    const char* storage = v.storage == ncio::Storage::kRaw       ? "raw"
                          : v.storage == ncio::Storage::kDeflate ? "deflate"
                                                                 : v.codec_spec.c_str();
    table.add_row({v.name, v.dtype == ncio::DataType::kFloat32 ? "f32" : "f64", storage,
                   std::to_string(elems), std::to_string(stored),
                   core::format_fixed(static_cast<double>(stored) / static_cast<double>(raw), 2)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}

int cmd_compress(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string codec_spec = opt_value(argc, argv, "--codec=");
  if (codec_spec.empty()) return usage();
  double min_rho = core::kPearsonThreshold;
  if (!rho_opt(argc, argv, min_rho)) return 2;

  ncio::Dataset ds = ncio::Dataset::read_file(argv[2]);
  std::size_t lossy = 0, lossless = 0;
  for (ncio::Variable& v : ds.variables()) {
    if (v.dtype != ncio::DataType::kFloat32) {
      v.storage = ncio::Storage::kDeflate;
      ++lossless;
      continue;
    }
    // Trial round trip against the quality bar.
    const std::optional<float> fill =
        v.fill_value ? std::optional<float>(static_cast<float>(*v.fill_value))
                     : std::nullopt;
    const comp::CodecPtr codec = comp::make_variant(codec_spec, fill);
    comp::Shape shape;
    for (std::uint32_t id : v.dim_ids) shape.dims.push_back(ds.dimension(id).length);
    if (shape.dims.empty()) shape.dims.push_back(v.f32.size());
    const comp::RoundTrip rt = comp::round_trip(*codec, v.f32, shape);
    std::vector<std::uint8_t> mask;
    if (fill) {
      mask.assign(v.f32.size(), 1);
      for (std::size_t i = 0; i < v.f32.size(); ++i) {
        if (v.f32[i] == *fill) mask[i] = 0;
      }
    }
    const core::ErrorMetrics m = core::compare_fields(v.f32, rt.reconstructed, mask);
    if (m.pearson >= min_rho) {
      v.storage = ncio::Storage::kCodec;
      v.codec_spec = codec_spec;
      ++lossy;
    } else {
      v.storage = ncio::Storage::kDeflate;
      v.codec_spec.clear();
      ++lossless;
    }
  }
  ds.attrs()["compression"] = codec_spec + " (rho >= " + core::format_fixed(min_rho, 5) + ")";
  ds.write_file(argv[3]);
  std::printf("wrote %s: %zu variables with %s, %zu lossless fallbacks\n", argv[3], lossy,
              codec_spec.c_str(), lossless);
  return 0;
}

int cmd_decompress(int argc, char** argv) {
  if (argc < 4) return usage();
  ncio::Dataset ds = ncio::Dataset::read_file(argv[2]);  // decodes all payloads
  for (ncio::Variable& v : ds.variables()) {
    v.storage = ncio::Storage::kRaw;
    v.codec_spec.clear();
  }
  ds.write_file(argv[3]);
  std::printf("wrote %s: %zu variables as raw float data\n", argv[3],
              ds.variables().size());
  return 0;
}

int cmd_diff(int argc, char** argv) {
  if (argc < 4) return usage();
  const ncio::Dataset a = ncio::Dataset::read_file(argv[2]);
  const ncio::Dataset b = ncio::Dataset::read_file(argv[3]);

  core::TextTable table({"variable", "e_nmax", "NRMSE", "pearson", "verdict"});
  std::size_t compared = 0;
  for (const ncio::Variable& va : a.variables()) {
    const ncio::Variable* vb = b.find_variable(va.name);
    if (vb == nullptr || va.dtype != ncio::DataType::kFloat32) continue;
    if (vb->f32.size() != va.f32.size()) continue;
    std::vector<std::uint8_t> mask;
    if (va.fill_value) {
      const auto fill = static_cast<float>(*va.fill_value);
      mask.assign(va.f32.size(), 1);
      for (std::size_t i = 0; i < va.f32.size(); ++i) {
        if (va.f32[i] == fill) mask[i] = 0;
      }
    }
    const core::ErrorMetrics m = core::compare_fields(va.f32, vb->f32, mask);
    table.add_row({va.name, core::format_sci(m.e_nmax), core::format_sci(m.nrmse),
                   core::format_fixed(m.pearson, 7),
                   m.pearson >= core::kPearsonThreshold ? "pass" : "FAIL"});
    ++compared;
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf("%zu variables compared\n", compared);
  return 0;
}

/// True when every argument after the command is one of `flags` or
/// starts with one of `prefixed` ("--name="); otherwise names the first
/// stranger on stderr. A misspelt option must not run the command without it.
bool known_options(int argc, char** argv, std::initializer_list<const char*> flags,
                   std::initializer_list<const char*> prefixed) {
  for (int i = 2; i < argc; ++i) {
    const auto is = [&](const char* f) { return std::strcmp(argv[i], f) == 0; };
    const auto starts = [&](const char* p) {
      return std::strncmp(argv[i], p, std::strlen(p)) == 0;
    };
    if (std::none_of(flags.begin(), flags.end(), is) &&
        std::none_of(prefixed.begin(), prefixed.end(), starts)) {
      std::fprintf(stderr, "cesmtool: unknown option \"%s\"\n", argv[i]);
      return false;
    }
  }
  return true;
}

int cmd_suite(int argc, char** argv) {
  if (!known_options(argc, argv, {"--full-grid", "--reuse-spill", "--no-bias"},
                     {"--scale=", "--spill-dir=", "--out=", "--members=", "--vars=",
                      "--chunk=", "--jobs=", "--spill-budget-mb=", "--variant-jobs="})) {
    return usage();
  }
  const bool full_grid = has_flag(argc, argv, "--full-grid");
  const bool paper = opt_value(argc, argv, "--scale=") == "paper";
  const std::string spill_dir = opt_value(argc, argv, "--spill-dir=");
  const std::string out = opt_value(argc, argv, "--out=");

  climate::EnsembleSpec espec;
  espec.grid = paper ? climate::GridSpec::paper() : climate::GridSpec::reduced();
  espec.members = 9;
  std::size_t var_limit = 0;
  std::uint64_t spill_budget_mb = 0;
  core::OocConfig cfg;
  if (!uint_opt(argc, argv, "--members=", espec.members) ||
      !uint_opt(argc, argv, "--vars=", var_limit) ||
      !uint_opt(argc, argv, "--chunk=", cfg.chunk_elems) ||
      !uint_opt(argc, argv, "--jobs=", cfg.parallel_variables) ||
      !uint_opt(argc, argv, "--spill-budget-mb=", spill_budget_mb, UINT64_MAX >> 20) ||
      // Scheduling only: verdicts land in fixed catalog-order slots, so the
      // CSV is byte-identical at any setting (1 = one member-major pass
      // over all variants, any other value = one task per plan-sharing run).
      !uint_opt(argc, argv, "--variant-jobs=", cfg.suite.variant_jobs)) {
    return 2;
  }
  const climate::EnsembleGenerator ens(espec);

  std::vector<std::string> vars;
  for (const climate::VariableSpec& v : ens.catalog()) {
    if (vars.size() >= var_limit) break;
    vars.push_back(v.name);
  }

  if (!spill_dir.empty()) cfg.spill_dir = spill_dir;
  cfg.reuse_spill = has_flag(argc, argv, "--reuse-spill");
  cfg.spill_budget_bytes = spill_budget_mb << 20;
  cfg.memory_budget_bytes = util::memory_budget_bytes().value_or(0);
  cfg.suite.run_bias = !has_flag(argc, argv, "--no-bias");
  // --full-grid streams on cfg.chunk_elems (65536 unless --chunk=N);
  // in-core verifies whole members unless --chunk=N asks for a partition.
  if (find_opt(argc, argv, "--chunk=") != nullptr) cfg.suite.chunk_elems = cfg.chunk_elems;

  core::SuiteResults results;
  if (full_grid) {
    results = core::run_suite_streaming(ens, cfg, vars);
  } else {
    results = core::run_suite(ens, cfg.suite, vars);
  }

  core::TextTable table({"method", "rho", "RMSZ", "e_nmax", "bias", "all 4"});
  const std::size_t processed = results.variables.size() - results.failed_variable_count();
  for (const core::MethodTally& row : results.tally()) {
    table.add_row({row.codec, std::to_string(row.rho), std::to_string(row.rmsz),
                   std::to_string(row.enmax), std::to_string(row.bias),
                   std::to_string(row.all)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  for (const core::VariableResult& v : results.variables) {
    if (v.processing_failed) {
      std::fprintf(stderr, "variable %s failed: %s\n", v.variable.c_str(),
                   v.error_message.c_str());
    }
  }
  std::printf("%zu variables (%zu failed), %zu members%s\n", processed,
              results.failed_variable_count(), espec.members,
              full_grid ? ", out-of-core" : "");
  std::printf("peak RSS %.1f MB%s\n",
              static_cast<double>(util::peak_rss_bytes()) / 1048576.0,
              full_grid && cfg.memory_budget_bytes == 0 ? " (no CESM_MEM_MB cap)"
                                                        : "");
  if (!out.empty()) {
    core::write_text_file(out, core::suite_results_csv(results));
    std::printf("wrote %s\n", out.c_str());
  }
  return results.failed_variable_count() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // Record-and-continue SIGINT/SIGTERM: dataset writes are temp+rename
  // atomic, so finishing the in-flight command and exiting 128+signum
  // beats dying mid-file. A second signal still kills immediately.
  util::install_signal_drain();
  const std::string cmd = argv[1];
  try {
    int rc = -1;
    if (cmd == "generate") rc = cmd_generate(argc, argv);
    else if (cmd == "info") rc = cmd_info(argc, argv);
    else if (cmd == "compress") rc = cmd_compress(argc, argv);
    else if (cmd == "decompress") rc = cmd_decompress(argc, argv);
    else if (cmd == "diff") rc = cmd_diff(argc, argv);
    else if (cmd == "suite") rc = cmd_suite(argc, argv);
    else return usage();
    if (util::interrupt_requested()) {
      std::fprintf(stderr, "cesmtool: interrupted by signal %d (output files are "
                           "complete: writes are atomic)\n",
                   util::interrupt_signal());
      return util::interrupt_exit_code();
    }
    return rc;
  } catch (const cesm::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
