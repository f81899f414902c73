// Every failpoint site compiled into the library, fired through its real
// production path — plus the suite-robustness acceptance scenarios: a
// poisoned decode must yield a codec-error verdict with lossless
// fallback, never a dead 170-variable sweep.
//
// The per-site coverage is a meta-test: the parameterized suite below is
// instantiated from fail::all_sites() itself, so adding a CESM_FAILPOINT
// to the library without adding a scenario here fails the new site's test
// with "no scenario fires failpoint site".

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "compress/apax/apax.h"
#include "compress/deflate/deflate.h"
#include "compress/fpz/fpz.h"
#include "compress/grib2/grib2.h"
#include "compress/isabela/isabela.h"
#include "compress/special.h"
#include "core/ensemble_cache.h"
#include "core/export.h"
#include "core/ooc.h"
#include "core/suite.h"
#include "ncio/chunkstore.h"
#include "ncio/dataset.h"
#include "serve/client.h"
#include "serve/server.h"
#include "support/generators.h"
#include "util/failpoint.h"
#include "util/scheduler.h"

namespace cesm {
namespace {

climate::EnsembleSpec tiny_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{12, 18, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

core::SuiteConfig fast_config() {
  core::SuiteConfig cfg;
  cfg.test_member_count = 2;
  cfg.grib_max_extra_digits = 3;
  cfg.run_bias = false;  // the robustness machinery is what's under test
  return cfg;
}

const climate::EnsembleGenerator& shared_ensemble() {
  static const climate::EnsembleGenerator ens(tiny_spec());
  return ens;
}

/// Round-trip a smooth field through `codec`; decode is where the armed
/// site lives, so the InjectedFault surfaces here.
void decode_roundtrip(const comp::Codec& codec) {
  const auto data = testgen::smooth_field(4096, 0xFA17ull);
  const Bytes stream = codec.encode(data, comp::Shape::d2(4, 1024));
  (void)codec.decode(stream);
}

ncio::Dataset small_dataset() {
  ncio::Dataset ds;
  const auto ncol = ds.add_dimension("ncol", 256);
  ncio::Variable v;
  v.name = "T";
  v.dim_ids = {ncol};
  v.f32 = testgen::smooth_field(256, 0xD5ull);
  ds.add_variable(std::move(v));
  return ds;
}

/// site name -> a call into the library that reaches that CESM_FAILPOINT
/// through its production path. Scenarios may let the InjectedFault
/// escape (callers assert a clean cesm::Error) or exercise a layer that
/// absorbs it into a recorded verdict; either way the site must fire.
const std::map<std::string, std::function<void()>>& site_scenarios() {
  static const auto* scenarios = new std::map<std::string, std::function<void()>>{
      {"apax.decode",
       [] { decode_roundtrip(comp::ApaxCodec(comp::ApaxCodec::fixed_rate(2))); }},
      {"cache.disk_read",
       [] {
         // A disk-tier cache read with entry validation. The injected
         // fault is absorbed by the corrupt-entry recovery path (count,
         // delete, regenerate), so the scenario completes either way —
         // the site must still fire.
         const std::filesystem::path dir =
             std::filesystem::path(::testing::TempDir()) / "cesm_failpoint_cache";
         util::CacheConfig cfg;
         cfg.disk_dir = dir.string();
         core::EnsembleCache& cache = core::EnsembleCache::global();
         const auto& ens = shared_ensemble();
         cache.configure(cfg);
         (void)cache.stats(ens, ens.variable("U"));  // build + persist
         cache.configure(cfg);                       // drop the memory tier
         (void)cache.stats(ens, ens.variable("U"));  // forces the disk read
         cache.configure(util::CacheConfig::from_env());
         std::filesystem::remove_all(dir);
       }},
      {"comp.prep_plan",
       [] {
         // Absorbed by the sweep: a fault during a chunk's plan build falls
         // back to the direct encode, so the scenario completes and the
         // sibling run must measure exactly what unplanned one-codec
         // verifies do.
         const auto& ens = shared_ensemble();
         const auto stats = core::EnsembleCache::global().stats(ens, ens.variable("U"));
         const core::PvtVerifier verifier(*stats);
         const comp::IsabelaCodec fine(0.1);
         const comp::IsabelaCodec coarse(0.5);
         const comp::Codec* const run[] = {&fine, &coarse};
         const std::size_t members[] = {0, 1};
         const std::vector<core::SweepResult> swept =
             verifier.verify_all(run, members, /*run_bias=*/false);
         for (std::size_t k = 0; k < 2; ++k) {
           if (swept[k].error) std::rethrow_exception(swept[k].error);
           const core::VariableVerdict alone = verifier.verify(*run[k], members, false);
           for (std::size_t i = 0; i < 2; ++i) {
             const core::MemberEvaluation& a = swept[k].verdict.members[i];
             const core::MemberEvaluation& b = alone.members[i];
             if (a.cr != b.cr || a.rmsz_reconstructed != b.rmsz_reconstructed) {
               throw Error("planned sweep diverged from direct encodes");
             }
           }
         }
       }},
      {"deflate.decode", [] { decode_roundtrip(comp::DeflateCodec()); }},
      {"fpz.decode", [] { decode_roundtrip(comp::FpzCodec(24)); }},
      {"grib2.decode", [] { decode_roundtrip(comp::Grib2Codec(3)); }},
      {"isabela.decode", [] { decode_roundtrip(comp::IsabelaCodec(0.5)); }},
      {"special.decode",
       [] {
         decode_roundtrip(
             comp::SpecialValueCodec(std::make_shared<comp::DeflateCodec>(), 1.0e20f));
       }},
      {"ncio.write", [] { (void)small_dataset().serialize(); }},
      {"ncio.read",
       [] {
         const Bytes bytes = small_dataset().serialize();
         (void)ncio::Dataset::deserialize(bytes);
       }},
      {"ncio.write_file",
       [] { small_dataset().write_file("/tmp/cesm_failpoint_site_test.cnc"); }},
      {"ncio.read_file",
       [] {
         const std::string path = "/tmp/cesm_failpoint_site_test.cnc";
         small_dataset().write_file(path);
         (void)ncio::Dataset::read_file(path);
         std::remove(path.c_str());
       }},
      {"ncio.read_chunk",
       [] {
         const std::filesystem::path path =
             std::filesystem::path(::testing::TempDir()) / "cesm_failpoint_chunkstore.cnk";
         const std::vector<std::size_t> offsets = {0, 128, 256};
         ncio::ChunkStoreWriter writer(path.string(), "T", comp::Shape::d2(2, 128),
                                       std::nullopt, 1, offsets);
         const auto data = testgen::smooth_field(256, 0xC4ull);
         writer.write_chunk(0, 0, std::span(data).subspan(0, 128));
         writer.write_chunk(0, 1, std::span(data).subspan(128, 128));
         writer.finish();
         ncio::ChunkStoreReader reader(path.string());
         std::vector<float> out(128);
         reader.read_chunk(0, 0, out);
         std::filesystem::remove(path);
       }},
      {"sched.task",
       [] {
         // Task bodies only run through the scheduler when it has
         // workers; the 1-CPU serial fast path never spawns tasks.
         ScopedScheduler two(2);
         std::atomic<std::size_t> sum{0};
         parallel_for(0, 2048, [&](std::size_t i) {
           sum.fetch_add(i, std::memory_order_relaxed);
         });
       }},
      {"serve.request",
       [] {
         // Full wire round-trip through a live daemon: the armed fault is
         // converted to a typed kProcessingFailed error response, which
         // the client rethrows as a RemoteError (a cesm::Error) — the
         // daemon itself survives.
         const std::filesystem::path sock =
             std::filesystem::path(::testing::TempDir()) / "cesm_failpoint_serve.sock";
         serve::ServerConfig cfg;
         cfg.unix_path = sock.string();
         serve::Server server(cfg);
         server.start();
         serve::VerifyRequest request;
         request.ensemble = tiny_spec();
         request.variable = "U";
         request.config = fast_config();
         serve::Client client = serve::Client::connect_unix(sock.string());
         (void)client.verify_raw(request);
         server.stop();
       }},
      {"suite.variable",
       [] {
         const auto& ens = shared_ensemble();
         (void)core::run_variable(ens, ens.variable("U"), fast_config());
       }},
      {"suite.verify_variant",
       [] {
         // Absorbed by the fallback policy: run_variable completes and
         // records a codec-error verdict instead of throwing.
         const auto& ens = shared_ensemble();
         (void)core::run_variable(ens, ens.variable("U"), fast_config());
       }},
  };
  return *scenarios;
}

std::string sanitize(std::string name) {
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class FailpointSite : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override { fail::reset(); }
  void TearDown() override { fail::reset(); }
};

// The meta-test: one instance per *registered* site. A site with no
// scenario fails its instance; a scenario whose path no longer reaches
// the site fails the fire-count assertion.
TEST_P(FailpointSite, IsFiredThroughItsProductionPath) {
  const std::string& site = GetParam();
  const auto& scenarios = site_scenarios();
  const auto it = scenarios.find(site);
  ASSERT_NE(it, scenarios.end())
      << "no scenario fires failpoint site '" << site
      << "' — add one to site_scenarios() in " << __FILE__;

  // Unarmed dry run: the scenario must complete cleanly on its own.
  ASSERT_NO_THROW(it->second()) << site << " scenario fails without injection";

  fail::ScopedFailpoint fp(site, fail::Trigger::once());
  try {
    it->second();
  } catch (const Error&) {
    // A clean library error (usually the InjectedFault itself) is the
    // expected surface; anything else (crash, leak, foreign exception)
    // fails the test / the sanitizer presets.
  }
  EXPECT_GE(fail::fire_count(site), 1u)
      << "scenario for '" << site << "' no longer reaches its CESM_FAILPOINT";
}

// Stale-scenario guard: every scenario key must name a registered site.
TEST(FailpointRegistry, ScenariosMatchRegisteredSites) {
  const auto sites = fail::all_sites();
  for (const auto& [name, fn] : site_scenarios()) {
    EXPECT_TRUE(fail::is_registered(name))
        << "scenario '" << name << "' does not match any registered failpoint";
  }
  EXPECT_EQ(site_scenarios().size(), sites.size());
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredSites, FailpointSite,
                         ::testing::ValuesIn(fail::all_sites()),
                         [](const auto& info) { return sanitize(info.param); });

// ---------------------------------------------------------------------------
// Acceptance: run_suite survives injected faults (ISSUE 4 criteria).
// ---------------------------------------------------------------------------

/// Field-by-field equality of two verdicts, exact on every double.
void expect_same_verdict(const core::VariableVerdict& a, const core::VariableVerdict& b) {
  SCOPED_TRACE(a.variable + " " + a.codec);
  EXPECT_EQ(a.codec, b.codec);
  EXPECT_EQ(a.codec_error, b.codec_error);
  EXPECT_EQ(a.mean_cr, b.mean_cr);
  EXPECT_EQ(a.all_pass(), b.all_pass());
  EXPECT_EQ(a.bias_evaluated, b.bias_evaluated);
  EXPECT_EQ(a.bias.fit.slope, b.bias.fit.slope);
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    const core::MemberEvaluation& x = a.members[i];
    const core::MemberEvaluation& y = b.members[i];
    EXPECT_EQ(x.member, y.member);
    EXPECT_EQ(x.cr, y.cr);
    EXPECT_EQ(x.metrics.rmse, y.metrics.rmse);
    EXPECT_EQ(x.metrics.e_nmax, y.metrics.e_nmax);
    EXPECT_EQ(x.metrics.pearson, y.metrics.pearson);
    EXPECT_EQ(x.rmsz_reconstructed, y.rmsz_reconstructed);
    EXPECT_EQ(x.enmax_ratio, y.enmax_ratio);
  }
}

class SuiteRobustness : public ::testing::Test {
 protected:
  void SetUp() override { fail::reset(); }
  void TearDown() override { fail::reset(); }
};

TEST_F(SuiteRobustness, LossyDecodeFailureGetsCodecErrorVerdictWithLosslessFallback) {
  // One poisoned decode per family: the first variant of that family to
  // decode fails, and the §5 stand-in is the family's own lossless mode
  // (fpzip-32) or NetCDF-4 for a family that has none.
  struct Case {
    const char* site;
    const char* variant;
    const char* fallback;
  };
  const core::SuiteResults clean =
      core::run_suite(shared_ensemble(), fast_config(), {"U", "FSDSC"});
  for (const Case& c : {Case{"fpz.decode", "fpzip-24", "fpzip-32"},
                        Case{"apax.decode", "APAX-2", "NetCDF-4"},
                        Case{"isabela.decode", "ISA-0.1", "NetCDF-4"}}) {
    SCOPED_TRACE(c.site);
    fail::reset();
    fail::ScopedFailpoint fp(c.site, fail::Trigger::once());
    const core::SuiteResults results =
        core::run_suite(shared_ensemble(), fast_config(), {"U", "FSDSC"});

    // The whole sweep completed: both variables, all nine verdicts each.
    ASSERT_EQ(results.variables.size(), 2u);
    EXPECT_EQ(results.failed_variable_count(), 0u);
    ASSERT_EQ(results.variant_names.size(), 9u);
    EXPECT_EQ(fail::fire_count(c.site), 1u);

    // Exactly one verdict took the hit; it is a codec-error with the
    // family's stand-in, and it never counts as a pass.
    std::size_t codec_errors = 0;
    for (const core::VariableResult& var : results.variables) {
      ASSERT_EQ(var.verdicts.size(), 9u);
      for (const core::VariableVerdict& v : var.verdicts) {
        if (!v.codec_error) continue;
        ++codec_errors;
        EXPECT_EQ(v.codec, c.variant);
        EXPECT_EQ(v.fallback_codec, c.fallback);
        EXPECT_FALSE(v.all_pass());
        EXPECT_NE(v.error_message.find(c.site), std::string::npos);
        // The fallback actually ran: member metrics were re-scored
        // (losslessly, so the correlation is exact).
        ASSERT_EQ(v.members.size(), 2u);
        for (const core::MemberEvaluation& m : v.members) {
          EXPECT_DOUBLE_EQ(m.metrics.pearson, 1.0);
        }
      }
    }
    EXPECT_EQ(codec_errors, 1u);

    // Sibling isolation: the variants swept in the same pass as the one
    // that threw measured exactly what a fault-free run does.
    for (std::size_t x = 0; x < results.variables.size(); ++x) {
      for (std::size_t v = 0; v < results.variables[x].verdicts.size(); ++v) {
        const core::VariableVerdict& got = results.variables[x].verdicts[v];
        if (!got.codec_error) expect_same_verdict(got, clean.variables[x].verdicts[v]);
      }
    }

    // The table layer reports the event instead of choking on it: the
    // codec_error flag, the fallback codec, and the thrown message all
    // appear in the row's trailing columns.
    const std::string csv = core::suite_results_csv(results);
    EXPECT_NE(csv.find(std::string(",1,") + c.fallback + ",injected fault at failpoint " +
                       c.site + "\n"),
              std::string::npos);
    EXPECT_EQ(results.tally().size(), 9u);
  }
}

TEST_F(SuiteRobustness, TransientVariableFailureIsRetriedToSuccess) {
  fail::ScopedFailpoint fp("suite.variable", fail::Trigger::once());
  const core::SuiteResults results =
      core::run_suite(shared_ensemble(), fast_config(), {"U", "FSDSC"});
  EXPECT_EQ(fail::fire_count("suite.variable"), 1u);
  EXPECT_EQ(results.failed_variable_count(), 0u);
  for (const core::VariableResult& var : results.variables) {
    EXPECT_EQ(var.verdicts.size(), 9u);
    EXPECT_FALSE(var.processing_failed);
  }
}

TEST_F(SuiteRobustness, ExhaustedRetriesQuarantineTheVariableNotTheSuite) {
  fail::ScopedFailpoint fp("suite.variable", fail::Trigger::always());
  const core::SuiteResults results =
      core::run_suite(shared_ensemble(), fast_config(), {"U", "FSDSC"});
  EXPECT_EQ(results.failed_variable_count(), 2u);
  ASSERT_EQ(results.variables.size(), 2u);
  for (const core::VariableResult& var : results.variables) {
    EXPECT_TRUE(var.processing_failed);
    EXPECT_FALSE(var.error_message.empty());
    EXPECT_TRUE(var.verdicts.empty());
  }
  // Aggregation and export still work with every variable quarantined;
  // the export keeps one failure row per variable (see below).
  EXPECT_EQ(results.variant_names.size(), 9u);
  for (const core::MethodTally& row : results.tally()) EXPECT_EQ(row.all, 0u);
  const std::string csv = core::suite_results_csv(results);
  EXPECT_NE(csv.find("\nU,"), std::string::npos);
}

/// The CSV row of `variable` (fields split on commas; the fixture's error
/// messages contain none), or empty when the variable has no row.
std::vector<std::string> csv_row(const std::string& csv, const std::string& variable) {
  const std::size_t at = csv.find("\n" + variable + ",");
  if (at == std::string::npos) return {};
  const std::string line = csv.substr(at + 1, csv.find('\n', at + 1) - at - 1);
  std::vector<std::string> fields(1);
  for (const char c : line) {
    if (c == ',') {
      fields.emplace_back();
    } else {
      fields.back() += c;
    }
  }
  return fields;
}

TEST_F(SuiteRobustness, QuarantinedVariableKeepsOneCsvRowOnBothLegs) {
  // A variable that failed must never just disappear from the output: it
  // gets one row with an empty variant, every pass flag 0 and its error.
  fail::ScopedFailpoint fp("suite.variable", fail::Trigger::always());
  core::OocConfig ooc;
  ooc.chunk_elems = 1024;
  ooc.spill_dir = ::testing::TempDir();
  ooc.suite = fast_config();
  const core::SuiteResults legs[] = {
      core::run_suite(shared_ensemble(), fast_config(), {"U", "FSDSC"}),
      core::run_suite_streaming(shared_ensemble(), ooc, {"U", "FSDSC"})};
  for (const core::SuiteResults& results : legs) {
    ASSERT_EQ(results.failed_variable_count(), 2u);
    const std::string csv = core::suite_results_csv(results);
    for (const core::VariableResult& var : results.variables) {
      SCOPED_TRACE(var.variable);
      const std::vector<std::string> row = csv_row(csv, var.variable);
      ASSERT_EQ(row.size(), 20u);
      EXPECT_EQ(row[2], "");                  // variant
      for (std::size_t col = 8; col <= 12; ++col) {
        EXPECT_EQ(row[col], "0") << "pass column " << col;
      }
      EXPECT_EQ(row[19], var.error_message);  // error_message
      EXPECT_NE(row[19].find("suite.variable"), std::string::npos);
      EXPECT_EQ(csv.find("\n" + var.variable + ",", csv.find("\n" + var.variable + ",") + 1),
                std::string::npos)
          << "more than one row";
    }
  }
}

TEST_F(SuiteRobustness, ContinueOnErrorOffRestoresThrowingBehavior) {
  fail::ScopedFailpoint fp("suite.variable", fail::Trigger::always());
  core::SuiteConfig cfg = fast_config();
  cfg.continue_on_variable_error = false;
  EXPECT_THROW(core::run_suite(shared_ensemble(), cfg, {"U"}), fail::InjectedFault);
}

TEST_F(SuiteRobustness, PrepPlanFaultFallsBackToDirectEncodeNotCodecError) {
  // Plans are pure memoization: a fault at every plan build just forces
  // the direct encode path, so the sweep completes with zero codec-error
  // verdicts — unlike a decode fault, nothing the suite measures is lost.
  fail::ScopedFailpoint fp("comp.prep_plan", fail::Trigger::always());
  const core::SuiteResults results =
      core::run_suite(shared_ensemble(), fast_config(), {"U"});
  EXPECT_GE(fail::fire_count("comp.prep_plan"), 1u);
  ASSERT_EQ(results.variables.size(), 1u);
  EXPECT_EQ(results.failed_variable_count(), 0u);
  ASSERT_EQ(results.variables[0].verdicts.size(), 9u);
  for (const core::VariableVerdict& v : results.variables[0].verdicts) {
    EXPECT_FALSE(v.codec_error) << v.codec;
  }
}

TEST_F(SuiteRobustness, FallbackDisabledStillRecordsCodecError) {
  // APAX is not touched by characterization or GRIB tuning, so the first
  // armed hit lands in the APAX-2 verify.
  fail::ScopedFailpoint fp("apax.decode", fail::Trigger::nth(1));
  core::SuiteConfig cfg = fast_config();
  cfg.lossless_fallback = false;
  const core::SuiteResults results = core::run_suite(shared_ensemble(), cfg, {"U"});
  ASSERT_EQ(results.variables.size(), 1u);
  std::size_t codec_errors = 0;
  for (const core::VariableVerdict& v : results.variables[0].verdicts) {
    if (v.codec_error) {
      ++codec_errors;
      EXPECT_EQ(v.codec, "APAX-2");
      EXPECT_TRUE(v.fallback_codec.empty());
      EXPECT_TRUE(v.members.empty());
      EXPECT_FALSE(v.all_pass());
    }
  }
  EXPECT_EQ(codec_errors, 1u);
}

}  // namespace
}  // namespace cesm
