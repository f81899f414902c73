#include "core/suite.h"

#include "compress/deflate/deflate.h"
#include "compress/fpz/fpz.h"
#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {

std::vector<MethodTally> SuiteResults::tally() const {
  std::vector<MethodTally> rows;
  for (std::size_t v = 0; v < variant_names.size(); ++v) {
    MethodTally row;
    row.codec = variant_names[v];
    for (const VariableResult& var : variables) {
      if (var.processing_failed) continue;
      const VariableVerdict& verdict = var.verdicts[v];
      row.rho += verdict.rho_pass ? 1 : 0;
      row.rmsz += verdict.rmsz_pass ? 1 : 0;
      row.enmax += verdict.enmax_pass ? 1 : 0;
      row.bias += verdict.bias_pass ? 1 : 0;
      row.all += verdict.all_pass() ? 1 : 0;
    }
    rows.push_back(row);
  }
  return rows;
}

std::size_t SuiteResults::failed_variable_count() const {
  std::size_t n = 0;
  for (const VariableResult& v : variables) n += v.processing_failed ? 1 : 0;
  return n;
}

std::size_t SuiteResults::variant_index(std::string_view name) const {
  for (std::size_t i = 0; i < variant_names.size(); ++i) {
    if (variant_names[i] == name) return i;
  }
  throw InvalidArgument("variant not in suite results: " + std::string(name));
}

const VariableResult& SuiteResults::variable(const std::string& name) const {
  for (const VariableResult& v : variables) {
    if (v.variable == name) return v;
  }
  throw InvalidArgument("variable not in suite results: " + name);
}

namespace {

/// What a failed variant threw: always a cesm::Error, the only exception
/// the sweep takes a codec out of the pass for.
std::string error_message(const std::exception_ptr& error) {
  std::string message;
  try {
    std::rethrow_exception(error);
  } catch (const Error& e) {
    message = e.what();
  }
  return message;
}

/// The verdict of a variant whose encode or decode threw — or whose fault
/// the catalog-order failpoint pre-pass injected: a codec-error verdict
/// (never a pass), re-scored under the lossless stand-in when the fallback
/// policy is on.
VariableVerdict codec_error_verdict(const PvtVerifier& verifier, const comp::Codec& codec,
                                    std::optional<float> fill,
                                    std::span<const std::size_t> test_members,
                                    const SuiteConfig& config, std::string message) {
  trace::add(trace::Counter::kSuiteCodecErrors);
  VariableVerdict verdict;
  verdict.variable = verifier.source().variable();
  verdict.codec = codec.name();
  verdict.codec_error = true;
  verdict.error_message = std::move(message);
  if (config.lossless_fallback) {
    const comp::CodecPtr stand_in = comp::lossless_stand_in(codec.family()).build(0, fill);
    try {
      VariableVerdict lossless =
          verifier.verify(*stand_in, test_members, config.run_bias);
      // Informational only: the variant's pass flags stay false — the
      // data really delivered came from the stand-in, and what we are
      // certifying is the lossy method.
      verdict.members = std::move(lossless.members);
      verdict.mean_cr = lossless.mean_cr;
      verdict.bias = lossless.bias;
      verdict.bias_evaluated = lossless.bias_evaluated;
      verdict.fallback_codec = stand_in->name();
      trace::add(trace::Counter::kSuiteLosslessFallbacks);
    } catch (const Error&) {
      // The stand-in failed too (e.g. its decode is also poisoned):
      // keep the bare codec-error verdict.
    }
  }
  return verdict;
}

}  // namespace

void begin_variable(const climate::VariableSpec& spec, const SuiteConfig& config) {
  trace::add(trace::Counter::kSuiteVariables);
  // test_members.front() (and every downstream verify) requires at least
  // one probe member; a zero count used to slip through pick_members and
  // dereference an empty vector.
  if (config.test_member_count == 0) {
    throw InvalidArgument("SuiteConfig::test_member_count must be >= 1 (variable " +
                          spec.name + ")");
  }
  // The GRIB2 ladder runs at least one rung: its last rung's evaluations
  // are the GRIB2 verdict's test members.
  if (config.grib_max_extra_digits < 0) {
    throw InvalidArgument("SuiteConfig::grib_max_extra_digits must be >= 0 (variable " +
                          spec.name + ")");
  }
  if (config.grib_significant_digits < 1 || config.grib_significant_digits > 12) {
    throw InvalidArgument("SuiteConfig::grib_significant_digits must be in [1, 12] (variable " +
                          spec.name + ")");
  }
  CESM_FAILPOINT("suite.variable");
}

VariableResult verify_variable(const climate::VariableSpec& spec, const ChunkSource& source,
                               const SuiteConfig& config) {
  VariableResult result;
  result.variable = spec.name;
  result.is_3d = spec.is_3d;
  if (spec.has_fill) result.fill = climate::kFillValue;

  const PvtVerifier verifier(source, config.thresholds);
  result.test_members = PvtVerifier::pick_members(
      config.test_member_count, source.stats().member_count(),
      hash_combine(config.member_seed, spec.stream));

  // Characterization + lossless baselines on the first test member: the
  // summary is the precomputed member summary, the CRs measure the stream
  // of the source's partition and are memoized with the stats.
  const std::size_t probe = result.test_members.front();
  result.character.summary = source.stats().member_summary(probe);
  const ProbeRatios probes = source.stats().probe_ratios(probe, source.chunk_elems(), [&] {
    return ProbeRatios{verifier.compression_ratio(comp::DeflateCodec(), probe),
                       verifier.compression_ratio(comp::FpzCodec(32), probe)};
  });
  result.character.lossless_cr = probes.lossless_cr;
  result.netcdf4_cr = probes.lossless_cr;
  result.fpzip32_cr = probes.fpzip32_cr;

  // RMSZ-guided GRIB2 decimal scale (§5.4). The chosen rung's test-member
  // evaluations are the GRIB2 verdict's: the sweep takes them as known.
  const GribTuning tuning =
      tune_decimal_scale(verifier, result.fill, result.test_members,
                         config.grib_significant_digits, config.grib_max_extra_digits);
  result.grib_decimal_scale = tuning.decimal_scale;
  result.grib_tuning_passed = tuning.passed;

  const std::vector<comp::CodecPtr> variants =
      comp::paper_variants(result.grib_decimal_scale, result.fill);

  // Failpoint pre-pass: hit "suite.verify_variant" once per variant in
  // catalog order before the sweep, so stateful triggers (once, nth,
  // prob) select the same variants at every variant_jobs setting. A
  // variant's failure message, injected here or thrown in the sweep,
  // turns its verdict into a codec error.
  std::vector<std::optional<std::string>> failure(variants.size());
  for (std::optional<std::string>& fault : failure) {
    try {
      CESM_FAILPOINT("suite.verify_variant");
    } catch (const Error& e) {
      fault = e.what();
    }
  }

  // The sweep covers the variants the pre-pass spared, in catalog order.
  std::vector<std::size_t> slot;
  std::vector<const comp::Codec*> swept;
  std::vector<std::span<const MemberEvaluation>> known;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (failure[i]) continue;
    slot.push_back(i);
    swept.push_back(variants[i].get());
    known.push_back(variants[i]->name() == "GRIB2" ? std::span(tuning.members)
                                                   : std::span<const MemberEvaluation>{});
  }
  std::vector<SweepResult> outcomes(swept.size());
  const auto sweep = [&](std::size_t lo, std::size_t hi) {
    trace::add(trace::Counter::kSweepVariantTasks);
    std::vector<SweepResult> part =
        verifier.verify_all(std::span(swept).subspan(lo, hi - lo), result.test_members,
                     config.run_bias, std::span(known).subspan(lo, hi - lo));
    std::move(part.begin(), part.end(), outcomes.begin() + static_cast<std::ptrdiff_t>(lo));
  };
  if (config.variant_jobs == 1) {
    // One member-major pass over every variant (the default).
    sweep(0, swept.size());
  } else {
    // One task per plan-sharing run, all on the one verifier.
    const std::vector<std::size_t> ends = plan_run_ends(swept);
    parallel_for(0, ends.size(),
                 [&](std::size_t r) { sweep(r == 0 ? 0 : ends[r - 1], ends[r]); });
  }

  // Verdicts land in fixed catalog-order slots, so the results are
  // byte-identical at any variant_jobs setting and worker count; failed
  // variants get their codec-error verdicts and fallbacks in catalog order.
  result.verdicts.resize(variants.size());
  for (std::size_t j = 0; j < slot.size(); ++j) {
    if (outcomes[j].error) {
      failure[slot[j]] = error_message(outcomes[j].error);
    } else {
      result.verdicts[slot[j]] = std::move(outcomes[j].verdict);
    }
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    if (!failure[i]) continue;
    result.verdicts[i] = codec_error_verdict(verifier, *variants[i], result.fill,
                                             result.test_members, config, *failure[i]);
  }
  return result;
}

VariableResult run_guarded(const climate::VariableSpec& spec, const SuiteConfig& config,
                           const std::function<VariableResult()>& run) {
  std::size_t failures = 0;
  for (;;) {
    try {
      return run();
    } catch (const InvalidArgument&) {
      throw;  // caller bug: retrying cannot help and hiding it would lie
    } catch (const Error& e) {
      if (failures++ < config.variable_retry_limit) {
        trace::add(trace::Counter::kSuiteVariableRetries);
        continue;
      }
      if (!config.continue_on_variable_error) throw;
      trace::add(trace::Counter::kSuiteVariableFailures);
      VariableResult failed;
      failed.variable = spec.name;
      failed.is_3d = spec.is_3d;
      failed.processing_failed = true;
      failed.error_message = e.what();
      return failed;
    }
  }
}

VariableResult run_variable(const climate::EnsembleGenerator& ensemble,
                            const climate::VariableSpec& spec,
                            const SuiteConfig& config) {
  trace::Span span("suite.variable");
  begin_variable(spec, config);
  // Memoized ensemble products: repetitions, variants and sibling bench
  // tools all share one synthesis + stats build per (ensemble, variable)
  // key. With the cache disabled this is a plain build.
  const std::shared_ptr<const EnsembleStats> stats =
      EnsembleCache::global().stats(ensemble, spec);
  return verify_variable(spec, ChunkSource(*stats, config.chunk_elems), config);
}

std::vector<const climate::VariableSpec*> resolve_suite_specs(
    const climate::EnsembleGenerator& ensemble,
    const std::vector<std::string>& variables) {
  std::vector<const climate::VariableSpec*> specs;
  if (variables.empty()) {
    specs.reserve(ensemble.catalog().size());
    for (const climate::VariableSpec& spec : ensemble.catalog()) specs.push_back(&spec);
  } else {
    specs.reserve(variables.size());
    for (const std::string& name : variables) specs.push_back(&ensemble.variable(name));
  }
  return specs;
}

SuiteResults run_suite(const climate::EnsembleGenerator& ensemble,
                       const SuiteConfig& config,
                       std::vector<std::string> variables) {
  trace::Span span("suite.run");
  SuiteResults results;

  const std::vector<const climate::VariableSpec*> specs =
      resolve_suite_specs(ensemble, variables);

  results.variables.resize(specs.size());
  parallel_for(0, specs.size(), [&](std::size_t i) {
    results.variables[i] = run_guarded(*specs[i], config, [&] {
      return run_variable(ensemble, *specs[i], config);
    });
  });
  trace::add(trace::Counter::kSuiteVariablesFailedTotal, results.failed_variable_count());

  derive_variant_names(results);
  return results;
}

void derive_variant_names(SuiteResults& results) {
  // Derive the variant-name row from the verdicts actually recorded, not
  // from a separately-built paper_variants() list: tally() pairs
  // variant_names[v] with verdicts[v], so any name/order divergence
  // between the two constructions would silently misattribute verdicts.
  // Every processed variable must agree on the same variant row;
  // processing_failed variables recorded no verdicts and are skipped.
  const VariableResult* first_ok = nullptr;
  for (const VariableResult& var : results.variables) {
    if (!var.processing_failed) {
      first_ok = &var;
      break;
    }
  }
  if (first_ok != nullptr) {
    for (const VariableVerdict& verdict : first_ok->verdicts) {
      results.variant_names.push_back(verdict.codec);
    }
    for (const VariableResult& var : results.variables) {
      if (var.processing_failed) continue;
      CESM_REQUIRE(var.verdicts.size() == results.variant_names.size());
      for (std::size_t v = 0; v < var.verdicts.size(); ++v) {
        CESM_REQUIRE(var.verdicts[v].codec == results.variant_names[v]);
      }
    }
  } else {
    // No variables swept (or none survived): the catalog's names.
    results.variant_names = comp::paper_variant_names();
  }
}

}  // namespace cesm::core
