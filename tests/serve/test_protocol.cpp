// Wire-protocol serialization: exact round-trips and hostile payloads.
//
// The parity guarantee of the whole serving tier rests on
// serialize_variable_result being a bijection on the structs run_suite
// produces: round-trip then re-serialize must reproduce the input bytes
// exactly (bit-stable through the f64 paths). The parsers also face the
// network, so truncations and corruptions of every message type must
// surface as FormatError, never UB or silent misreads.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "util/error.h"

namespace cesm::serve {
namespace {

VerifyRequest sample_request() {
  VerifyRequest request;
  request.ensemble.grid = climate::GridSpec{12, 18, 3};
  request.ensemble.members = 9;
  request.ensemble.latent.k = 48;
  request.ensemble.latent.forcing = 7.75;
  request.ensemble.latent.dt = 0.025;
  request.ensemble.latent.spinup_steps = 200;
  request.ensemble.latent.average_steps = 400;
  request.ensemble.latent.seed = 0xFEEDFACEull;
  request.variable = "CCN3";
  request.config.test_member_count = 2;
  request.config.member_seed = 0xABCDEFull;
  request.config.run_bias = false;
  request.config.thresholds.pearson_min = 0.9999;
  request.config.grib_max_extra_digits = 3;
  request.config.variable_retry_limit = 2;
  request.variants = {"fpzip-24", "GRIB2"};
  return request;
}

/// A VariableResult with every field group populated with asymmetric
/// values (so a swapped read order cannot round-trip by accident).
core::VariableResult sample_result() {
  core::VariableResult result;
  result.variable = "CCN3";
  result.is_3d = true;
  result.fill = 1.0e35f;
  result.character.summary = {-3.5, 1250.25, 42.125, 17.0625, 648};
  result.character.lossless_cr = 0.53125;
  result.grib_decimal_scale = 5;
  result.grib_tuning_passed = true;
  result.netcdf4_cr = 0.515625;
  result.fpzip32_cr = 0.4375;
  result.test_members = {3, 7};
  result.error_message = "partial, with a \"quote\"";

  core::VariableVerdict verdict;
  verdict.variable = "CCN3";
  verdict.codec = "fpzip-24";
  verdict.bias_evaluated = true;
  verdict.mean_cr = 0.359375;
  verdict.rho_pass = true;
  verdict.rmsz_pass = false;
  verdict.enmax_pass = true;
  verdict.bias_pass = true;
  verdict.bias.fit = {1.0078125, -0.001953125, 0.00390625, 0.0009765625, 0.03125,
                      0.99609375, 9};
  verdict.bias.rect = {0.9921875, 1.0234375, -0.0078125, 0.00390625};
  verdict.bias.slope_distance = 0.015625;
  verdict.bias.pass = true;
  verdict.bias.contains_ideal = true;

  core::MemberEvaluation eval;
  eval.member = 7;
  eval.cr = 0.34375;
  eval.metrics = {1.5e-3, 7.5e-7, 3.25e-4, 1.625e-7, 96.5, 0.999998, 648};
  eval.rmsz_original = 0.8125;
  eval.rmsz_reconstructed = 0.828125;
  eval.rmsz_diff = 0.015625;
  eval.rmsz_in_distribution = true;
  eval.enmax_ratio = 0.046875;
  eval.rho_pass = true;
  eval.rmsz_pass = true;
  eval.enmax_pass = false;
  verdict.members.push_back(eval);
  result.verdicts.push_back(verdict);

  core::VariableVerdict failed;
  failed.variable = "CCN3";
  failed.codec = "GRIB2";
  failed.codec_error = true;
  failed.error_message = "injected fault at failpoint grib2.decode";
  failed.fallback_codec = "NetCDF-4";
  result.verdicts.push_back(failed);
  return result;
}

TEST(Protocol, VerifyRequestRoundTripsExactly) {
  const VerifyRequest request = sample_request();
  const Bytes bytes = serialize_verify_request(request);
  const VerifyRequest back = parse_verify_request(bytes);
  // Re-serialization is the equality oracle: it covers every field
  // without a hand-written operator== that could drift from the schema.
  EXPECT_EQ(serialize_verify_request(back), bytes);
  EXPECT_EQ(back.variable, "CCN3");
  EXPECT_EQ(back.variants, (std::vector<std::string>{"fpzip-24", "GRIB2"}));
  EXPECT_EQ(back.ensemble.latent.forcing, 7.75);
  EXPECT_FALSE(back.config.run_bias);
}

TEST(Protocol, VariableResultRoundTripsExactly) {
  const core::VariableResult result = sample_result();
  const Bytes bytes = serialize_variable_result(result);
  const core::VariableResult back = parse_variable_result(bytes);
  EXPECT_EQ(serialize_variable_result(back), bytes);
  ASSERT_EQ(back.verdicts.size(), 2u);
  EXPECT_EQ(back.fill, result.fill);
  EXPECT_EQ(back.verdicts[0].members.at(0).metrics.pearson, 0.999998);
  EXPECT_TRUE(back.verdicts[1].codec_error);
  EXPECT_EQ(back.verdicts[1].fallback_codec, "NetCDF-4");
}

TEST(Protocol, ErrorAndCountersRoundTrip) {
  const ErrorInfo error{ErrorCode::kQueueFull, "8 computations already in flight"};
  const ErrorInfo back = parse_error(serialize_error(error));
  EXPECT_EQ(back.code, ErrorCode::kQueueFull);
  EXPECT_EQ(back.message, error.message);

  const std::map<std::string, std::uint64_t> counters = {
      {"serve.requests", 17}, {"serve.coalesced_joins", 7}, {"serve.flights", 2}};
  EXPECT_EQ(parse_counters(serialize_counters(counters)), counters);
}

TEST(Protocol, TruncationAtEveryPrefixIsFormatError) {
  // Chop the serialized forms at every length: each prefix must parse to
  // FormatError (the bounds-checked reader), never crash or misread.
  const Bytes request = serialize_verify_request(sample_request());
  for (std::size_t n = 0; n < request.size(); ++n) {
    EXPECT_THROW((void)parse_verify_request({request.data(), n}), FormatError)
        << "request prefix " << n;
  }
  const Bytes result = serialize_variable_result(sample_result());
  for (std::size_t n = 0; n < result.size(); ++n) {
    EXPECT_THROW((void)parse_variable_result({result.data(), n}), FormatError)
        << "result prefix " << n;
  }
}

TEST(Protocol, TrailingGarbageIsFormatError) {
  Bytes bytes = serialize_verify_request(sample_request());
  bytes.push_back(0x00);
  EXPECT_THROW((void)parse_verify_request(bytes), FormatError);
}

TEST(Protocol, WrongVersionIsRejected) {
  Bytes bytes = serialize_verify_request(sample_request());
  bytes[0] = static_cast<std::uint8_t>(kProtocolVersion + 1);
  EXPECT_THROW((void)parse_verify_request(bytes), FormatError);
}

TEST(Protocol, HostileDeclaredCountIsRejectedWithoutAllocation) {
  // A verdict count of ~4 billion in a 50-byte payload must be rejected
  // by the count-vs-remaining guard, not attempted.
  Bytes bytes = serialize_variable_result(sample_result());
  bytes.resize(60);
  for (std::size_t i = 52; i < 60; ++i) bytes[i] = 0xFF;
  EXPECT_THROW((void)parse_variable_result(bytes), FormatError);
}

TEST(Protocol, CoalescingKeyIgnoresVariantFilterOnly) {
  const VerifyRequest base = sample_request();
  VerifyRequest other = base;
  other.variants = {};  // different filter, same computation
  EXPECT_EQ(coalescing_key(base), coalescing_key(other));

  VerifyRequest different_var = base;
  different_var.variable = "U";
  EXPECT_NE(coalescing_key(base), coalescing_key(different_var));

  VerifyRequest different_seed = base;
  different_seed.ensemble.latent.seed ^= 1;
  EXPECT_NE(coalescing_key(base), coalescing_key(different_seed));

  VerifyRequest different_cfg = base;
  different_cfg.config.run_bias = !base.config.run_bias;
  EXPECT_NE(coalescing_key(base), coalescing_key(different_cfg));

  VerifyRequest different_grid = base;
  different_grid.ensemble.grid.nlev += 1;
  EXPECT_NE(coalescing_key(base), coalescing_key(different_grid));

  // Every single wire field of the spec and the config is part of the
  // computation, so changing any one of them changes the key.
  const std::vector<std::pair<const char*, void (*)(VerifyRequest&)>> fields = {
      {"grid.nlat", [](VerifyRequest& q) { q.ensemble.grid.nlat += 1; }},
      {"grid.nlon", [](VerifyRequest& q) { q.ensemble.grid.nlon += 1; }},
      {"grid.nlev", [](VerifyRequest& q) { q.ensemble.grid.nlev += 1; }},
      {"members", [](VerifyRequest& q) { q.ensemble.members += 1; }},
      {"latent.k", [](VerifyRequest& q) { q.ensemble.latent.k += 1; }},
      {"latent.forcing", [](VerifyRequest& q) { q.ensemble.latent.forcing += 0.25; }},
      {"latent.dt", [](VerifyRequest& q) { q.ensemble.latent.dt *= 2.0; }},
      {"latent.spinup_steps", [](VerifyRequest& q) { q.ensemble.latent.spinup_steps += 1; }},
      {"latent.average_steps", [](VerifyRequest& q) { q.ensemble.latent.average_steps += 1; }},
      {"latent.seed", [](VerifyRequest& q) { q.ensemble.latent.seed += 1; }},
      {"variable", [](VerifyRequest& q) { q.variable = "U"; }},
      {"test_member_count", [](VerifyRequest& q) { q.config.test_member_count += 1; }},
      {"member_seed", [](VerifyRequest& q) { q.config.member_seed += 1; }},
      {"run_bias", [](VerifyRequest& q) { q.config.run_bias = !q.config.run_bias; }},
      {"pearson_min", [](VerifyRequest& q) { q.config.thresholds.pearson_min = 0.99; }},
      {"rmsz_diff_max", [](VerifyRequest& q) { q.config.thresholds.rmsz_diff_max *= 2.0; }},
      {"enmax_ratio_max", [](VerifyRequest& q) { q.config.thresholds.enmax_ratio_max *= 2.0; }},
      {"bias_confidence", [](VerifyRequest& q) { q.config.thresholds.bias_confidence = 0.9; }},
      {"rmsz_range_slack",
       [](VerifyRequest& q) { q.config.thresholds.rmsz_range_slack += 0.5; }},
      {"grib_significant_digits", [](VerifyRequest& q) { q.config.grib_significant_digits += 1; }},
      {"grib_max_extra_digits", [](VerifyRequest& q) { q.config.grib_max_extra_digits += 1; }},
      {"lossless_fallback",
       [](VerifyRequest& q) { q.config.lossless_fallback = !q.config.lossless_fallback; }},
      {"variable_retry_limit", [](VerifyRequest& q) { q.config.variable_retry_limit += 1; }},
      {"continue_on_variable_error",
       [](VerifyRequest& q) {
         q.config.continue_on_variable_error = !q.config.continue_on_variable_error;
       }},
  };
  for (const auto& [name, change] : fields) {
    SCOPED_TRACE(name);
    VerifyRequest changed = base;
    change(changed);
    ASSERT_NE(serialize_verify_request(changed), serialize_verify_request(base));
    EXPECT_NE(coalescing_key(changed), coalescing_key(base));
  }
}

TEST(Protocol, FilterResultSelectsInRequestOrder) {
  const core::VariableResult result = sample_result();
  const core::VariableResult filtered =
      filter_result(result, {"GRIB2", "fpzip-24"});
  ASSERT_EQ(filtered.verdicts.size(), 2u);
  EXPECT_EQ(filtered.verdicts[0].codec, "GRIB2");
  EXPECT_EQ(filtered.verdicts[1].codec, "fpzip-24");
  // Non-verdict fields survive filtering untouched.
  EXPECT_EQ(filtered.grib_decimal_scale, result.grib_decimal_scale);

  const core::VariableResult all = filter_result(result, {});
  EXPECT_EQ(serialize_variable_result(all), serialize_variable_result(result));

  EXPECT_THROW((void)filter_result(result, {"no-such-codec"}), InvalidArgument);
}

}  // namespace
}  // namespace cesm::serve
