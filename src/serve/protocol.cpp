#include "serve/protocol.h"

#include "util/cache.h"
#include "util/error.h"

namespace cesm::serve {

namespace {

void write_bool(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }

bool read_bool(ByteReader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) throw FormatError("boolean field out of range");
  return v != 0;
}

void check_version(ByteReader& r, const char* what) {
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) {
    throw FormatError(std::string(what) + ": unsupported protocol version " +
                      std::to_string(version));
  }
}

/// Guard a declared element count against a hostile payload: the count
/// cannot exceed the bytes remaining even at one byte per element.
std::uint32_t read_count(ByteReader& r, const char* what) {
  const std::uint32_t n = r.u32();
  if (n > r.remaining()) {
    throw FormatError(std::string(what) + ": declared count " + std::to_string(n) +
                      " exceeds payload");
  }
  return n;
}

void require_exhausted(const ByteReader& r, const char* what) {
  if (!r.exhausted()) {
    throw FormatError(std::string(what) + ": " + std::to_string(r.remaining()) +
                      " trailing bytes");
  }
}

// --- field-group helpers (write/read pairs kept adjacent so a schema
// --- change is a two-line diff, not a hunt) --------------------------------

void write_ensemble_spec(ByteWriter& w, const climate::EnsembleSpec& spec) {
  w.u64(spec.grid.nlat);
  w.u64(spec.grid.nlon);
  w.u64(spec.grid.nlev);
  w.u64(spec.members);
  w.u64(spec.latent.k);
  w.f64(spec.latent.forcing);
  w.f64(spec.latent.dt);
  w.u64(spec.latent.spinup_steps);
  w.u64(spec.latent.average_steps);
  w.u64(spec.latent.seed);
}

climate::EnsembleSpec read_ensemble_spec(ByteReader& r) {
  climate::EnsembleSpec spec;
  spec.grid.nlat = r.u64();
  spec.grid.nlon = r.u64();
  spec.grid.nlev = r.u64();
  spec.members = r.u64();
  spec.latent.k = r.u64();
  spec.latent.forcing = r.f64();
  spec.latent.dt = r.f64();
  spec.latent.spinup_steps = r.u64();
  spec.latent.average_steps = r.u64();
  spec.latent.seed = r.u64();
  return spec;
}

void write_suite_config(ByteWriter& w, const core::SuiteConfig& cfg) {
  w.u64(cfg.test_member_count);
  w.u64(cfg.member_seed);
  write_bool(w, cfg.run_bias);
  w.f64(cfg.thresholds.pearson_min);
  w.f64(cfg.thresholds.rmsz_diff_max);
  w.f64(cfg.thresholds.enmax_ratio_max);
  w.f64(cfg.thresholds.bias_confidence);
  w.f64(cfg.thresholds.rmsz_range_slack);
  w.i32(cfg.grib_significant_digits);
  w.i32(cfg.grib_max_extra_digits);
  write_bool(w, cfg.lossless_fallback);
  w.u64(cfg.variable_retry_limit);
  write_bool(w, cfg.continue_on_variable_error);
}

core::SuiteConfig read_suite_config(ByteReader& r) {
  core::SuiteConfig cfg;
  cfg.test_member_count = r.u64();
  cfg.member_seed = r.u64();
  cfg.run_bias = read_bool(r);
  cfg.thresholds.pearson_min = r.f64();
  cfg.thresholds.rmsz_diff_max = r.f64();
  cfg.thresholds.enmax_ratio_max = r.f64();
  cfg.thresholds.bias_confidence = r.f64();
  cfg.thresholds.rmsz_range_slack = r.f64();
  cfg.grib_significant_digits = r.i32();
  cfg.grib_max_extra_digits = r.i32();
  cfg.lossless_fallback = read_bool(r);
  cfg.variable_retry_limit = r.u64();
  cfg.continue_on_variable_error = read_bool(r);
  return cfg;
}

void write_member_eval(ByteWriter& w, const core::MemberEvaluation& e) {
  w.u64(e.member);
  w.f64(e.cr);
  w.f64(e.metrics.e_max);
  w.f64(e.metrics.e_nmax);
  w.f64(e.metrics.rmse);
  w.f64(e.metrics.nrmse);
  w.f64(e.metrics.psnr);
  w.f64(e.metrics.pearson);
  w.u64(e.metrics.points);
  w.f64(e.rmsz_original);
  w.f64(e.rmsz_reconstructed);
  w.f64(e.rmsz_diff);
  write_bool(w, e.rmsz_in_distribution);
  w.f64(e.enmax_ratio);
  write_bool(w, e.rho_pass);
  write_bool(w, e.rmsz_pass);
  write_bool(w, e.enmax_pass);
}

core::MemberEvaluation read_member_eval(ByteReader& r) {
  core::MemberEvaluation e;
  e.member = r.u64();
  e.cr = r.f64();
  e.metrics.e_max = r.f64();
  e.metrics.e_nmax = r.f64();
  e.metrics.rmse = r.f64();
  e.metrics.nrmse = r.f64();
  e.metrics.psnr = r.f64();
  e.metrics.pearson = r.f64();
  e.metrics.points = r.u64();
  e.rmsz_original = r.f64();
  e.rmsz_reconstructed = r.f64();
  e.rmsz_diff = r.f64();
  e.rmsz_in_distribution = read_bool(r);
  e.enmax_ratio = r.f64();
  e.rho_pass = read_bool(r);
  e.rmsz_pass = read_bool(r);
  e.enmax_pass = read_bool(r);
  return e;
}

void write_bias(ByteWriter& w, const core::BiasResult& b) {
  w.f64(b.fit.slope);
  w.f64(b.fit.intercept);
  w.f64(b.fit.slope_se);
  w.f64(b.fit.intercept_se);
  w.f64(b.fit.residual_sd);
  w.f64(b.fit.r2);
  w.u64(b.fit.n);
  w.f64(b.rect.slope_lo);
  w.f64(b.rect.slope_hi);
  w.f64(b.rect.intercept_lo);
  w.f64(b.rect.intercept_hi);
  w.f64(b.slope_distance);
  write_bool(w, b.pass);
  write_bool(w, b.contains_ideal);
}

core::BiasResult read_bias(ByteReader& r) {
  core::BiasResult b;
  b.fit.slope = r.f64();
  b.fit.intercept = r.f64();
  b.fit.slope_se = r.f64();
  b.fit.intercept_se = r.f64();
  b.fit.residual_sd = r.f64();
  b.fit.r2 = r.f64();
  b.fit.n = r.u64();
  b.rect.slope_lo = r.f64();
  b.rect.slope_hi = r.f64();
  b.rect.intercept_lo = r.f64();
  b.rect.intercept_hi = r.f64();
  b.slope_distance = r.f64();
  b.pass = read_bool(r);
  b.contains_ideal = read_bool(r);
  return b;
}

void write_verdict(ByteWriter& w, const core::VariableVerdict& v) {
  w.str(v.variable);
  w.str(v.codec);
  w.u32(static_cast<std::uint32_t>(v.members.size()));
  for (const core::MemberEvaluation& e : v.members) write_member_eval(w, e);
  write_bias(w, v.bias);
  write_bool(w, v.bias_evaluated);
  w.f64(v.mean_cr);
  write_bool(w, v.rho_pass);
  write_bool(w, v.rmsz_pass);
  write_bool(w, v.enmax_pass);
  write_bool(w, v.bias_pass);
  write_bool(w, v.codec_error);
  w.str(v.error_message);
  w.str(v.fallback_codec);
}

core::VariableVerdict read_verdict(ByteReader& r) {
  core::VariableVerdict v;
  v.variable = r.str();
  v.codec = r.str();
  const std::uint32_t members = read_count(r, "verdict members");
  v.members.reserve(members);
  for (std::uint32_t i = 0; i < members; ++i) v.members.push_back(read_member_eval(r));
  v.bias = read_bias(r);
  v.bias_evaluated = read_bool(r);
  v.mean_cr = r.f64();
  v.rho_pass = read_bool(r);
  v.rmsz_pass = read_bool(r);
  v.enmax_pass = read_bool(r);
  v.bias_pass = read_bool(r);
  v.codec_error = read_bool(r);
  v.error_message = r.str();
  v.fallback_codec = r.str();
  return v;
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kOversizedFrame: return "oversized-frame";
    case ErrorCode::kUnsupportedType: return "unsupported-type";
    case ErrorCode::kUnsupportedVersion: return "unsupported-version";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kQueueFull: return "queue-full";
    case ErrorCode::kProcessingFailed: return "processing-failed";
    case ErrorCode::kShuttingDown: return "shutting-down";
  }
  return "unknown";
}

Bytes serialize_verify_request(const VerifyRequest& request) {
  Bytes out;
  ByteWriter w(out);
  w.u32(kProtocolVersion);
  write_ensemble_spec(w, request.ensemble);
  w.str(request.variable);
  write_suite_config(w, request.config);
  w.u32(static_cast<std::uint32_t>(request.variants.size()));
  for (const std::string& v : request.variants) w.str(v);
  return out;
}

VerifyRequest parse_verify_request(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  check_version(r, "verify request");
  VerifyRequest request;
  request.ensemble = read_ensemble_spec(r);
  request.variable = r.str();
  request.config = read_suite_config(r);
  const std::uint32_t variants = read_count(r, "request variants");
  request.variants.reserve(variants);
  for (std::uint32_t i = 0; i < variants; ++i) request.variants.push_back(r.str());
  require_exhausted(r, "verify request");
  return request;
}

Bytes serialize_variable_result(const core::VariableResult& result) {
  Bytes out;
  ByteWriter w(out);
  w.u32(kProtocolVersion);
  w.str(result.variable);
  write_bool(w, result.is_3d);
  write_bool(w, result.fill.has_value());
  w.f32(result.fill.value_or(0.0f));
  w.f64(result.character.summary.min);
  w.f64(result.character.summary.max);
  w.f64(result.character.summary.mean);
  w.f64(result.character.summary.stddev);
  w.u64(result.character.summary.count);
  w.f64(result.character.lossless_cr);
  w.i32(result.grib_decimal_scale);
  write_bool(w, result.grib_tuning_passed);
  w.u32(static_cast<std::uint32_t>(result.verdicts.size()));
  for (const core::VariableVerdict& v : result.verdicts) write_verdict(w, v);
  w.f64(result.netcdf4_cr);
  w.f64(result.fpzip32_cr);
  w.u32(static_cast<std::uint32_t>(result.test_members.size()));
  for (std::size_t m : result.test_members) w.u64(m);
  write_bool(w, result.processing_failed);
  w.str(result.error_message);
  return out;
}

core::VariableResult parse_variable_result(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  check_version(r, "variable result");
  core::VariableResult result;
  result.variable = r.str();
  result.is_3d = read_bool(r);
  const bool has_fill = read_bool(r);
  const float fill = r.f32();
  if (has_fill) result.fill = fill;
  result.character.summary.min = r.f64();
  result.character.summary.max = r.f64();
  result.character.summary.mean = r.f64();
  result.character.summary.stddev = r.f64();
  result.character.summary.count = r.u64();
  result.character.lossless_cr = r.f64();
  result.grib_decimal_scale = r.i32();
  result.grib_tuning_passed = read_bool(r);
  const std::uint32_t verdicts = read_count(r, "result verdicts");
  result.verdicts.reserve(verdicts);
  for (std::uint32_t i = 0; i < verdicts; ++i) result.verdicts.push_back(read_verdict(r));
  result.netcdf4_cr = r.f64();
  result.fpzip32_cr = r.f64();
  const std::uint32_t members = read_count(r, "result test members");
  result.test_members.reserve(members);
  for (std::uint32_t i = 0; i < members; ++i) result.test_members.push_back(r.u64());
  result.processing_failed = read_bool(r);
  result.error_message = r.str();
  require_exhausted(r, "variable result");
  return result;
}

Bytes serialize_error(const ErrorInfo& error) {
  Bytes out;
  ByteWriter w(out);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(error.code));
  w.str(error.message);
  return out;
}

ErrorInfo parse_error(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  check_version(r, "error response");
  ErrorInfo error;
  const std::uint32_t code = r.u32();
  if (code < static_cast<std::uint32_t>(ErrorCode::kMalformedFrame) ||
      code > static_cast<std::uint32_t>(ErrorCode::kShuttingDown)) {
    throw FormatError("error response: unknown code " + std::to_string(code));
  }
  error.code = static_cast<ErrorCode>(code);
  error.message = r.str();
  require_exhausted(r, "error response");
  return error;
}

Bytes serialize_counters(const std::map<std::string, std::uint64_t>& counters) {
  Bytes out;
  ByteWriter w(out);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(counters.size()));
  for (const auto& [name, value] : counters) {
    w.str(name);
    w.u64(value);
  }
  return out;
}

std::map<std::string, std::uint64_t> parse_counters(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  check_version(r, "stats response");
  std::map<std::string, std::uint64_t> counters;
  const std::uint32_t n = read_count(r, "stats counters");
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string name = r.str();
    counters[std::move(name)] = r.u64();
  }
  require_exhausted(r, "stats response");
  return counters;
}

std::uint64_t coalescing_key(const VerifyRequest& request) {
  // The request's wire bytes without the variant filter, which selects
  // verdicts out of the shared computation at response time: every field
  // the wire carries joins the key by construction.
  const VerifyRequest computation{request.ensemble, request.variable, request.config, {}};
  return util::KeyHasher()
      .str("cesmd.verify.v2")
      .bytes(serialize_verify_request(computation))
      .digest();
}

core::VariableResult filter_result(const core::VariableResult& result,
                                   const std::vector<std::string>& variants) {
  if (variants.empty()) return result;
  core::VariableResult filtered = result;
  filtered.verdicts.clear();
  for (const std::string& name : variants) {
    bool found = false;
    for (const core::VariableVerdict& v : result.verdicts) {
      if (v.codec == name) {
        filtered.verdicts.push_back(v);
        found = true;
        break;
      }
    }
    if (!found) {
      throw InvalidArgument("unknown variant in request filter: " + name);
    }
  }
  return filtered;
}

}  // namespace cesm::serve
