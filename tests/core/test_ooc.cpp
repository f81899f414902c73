#include "core/ooc.h"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "compress/isabela/isabela.h"
#include "core/export.h"
#include "core/hybrid.h"
#include "core/rmsz.h"
#include "ncio/chunkstore.h"
#include "stats/descriptive.h"
#include "support/generators.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/scheduler.h"
#include "util/trace.h"

namespace cesm::core {
namespace {

/// Grid sized so a 2-D variable (1025 columns) splits into a full chunk
/// plus a 1-element tail at chunk_elems = 1024, and a 3-D variable has
/// slice-aligned chunks that don't divide the kernel block — the
/// partition edge cases the streaming kernels must absorb.
climate::EnsembleSpec small_spec() {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{25, 41, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  return spec;
}

OocConfig ooc_config() {
  OocConfig cfg;
  cfg.chunk_elems = 1024;
  cfg.spill_dir = ::testing::TempDir();
  cfg.suite.test_member_count = 2;
  cfg.suite.grib_max_extra_digits = 3;
  // The in-core twin must measure through the same chunk partition.
  cfg.suite.chunk_elems = 1024;
  return cfg;
}

void expect_summary_eq(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.count, b.count);
}

void expect_eval_eq(const MemberEvaluation& a, const MemberEvaluation& b) {
  EXPECT_EQ(a.member, b.member);
  EXPECT_EQ(a.cr, b.cr);
  EXPECT_EQ(a.metrics.rmse, b.metrics.rmse);
  EXPECT_EQ(a.metrics.nrmse, b.metrics.nrmse);
  EXPECT_EQ(a.metrics.e_max, b.metrics.e_max);
  EXPECT_EQ(a.metrics.e_nmax, b.metrics.e_nmax);
  EXPECT_EQ(a.metrics.psnr, b.metrics.psnr);
  EXPECT_EQ(a.metrics.pearson, b.metrics.pearson);
  EXPECT_EQ(a.metrics.points, b.metrics.points);
  EXPECT_EQ(a.rmsz_original, b.rmsz_original);
  EXPECT_EQ(a.rmsz_reconstructed, b.rmsz_reconstructed);
  EXPECT_EQ(a.rmsz_diff, b.rmsz_diff);
  EXPECT_EQ(a.rmsz_in_distribution, b.rmsz_in_distribution);
  EXPECT_EQ(a.enmax_ratio, b.enmax_ratio);
  EXPECT_EQ(a.rho_pass, b.rho_pass);
  EXPECT_EQ(a.rmsz_pass, b.rmsz_pass);
  EXPECT_EQ(a.enmax_pass, b.enmax_pass);
}

void expect_verdict_eq(const VariableVerdict& a, const VariableVerdict& b) {
  EXPECT_EQ(a.variable, b.variable);
  EXPECT_EQ(a.codec, b.codec);
  EXPECT_EQ(a.mean_cr, b.mean_cr);
  EXPECT_EQ(a.rho_pass, b.rho_pass);
  EXPECT_EQ(a.rmsz_pass, b.rmsz_pass);
  EXPECT_EQ(a.enmax_pass, b.enmax_pass);
  EXPECT_EQ(a.bias_pass, b.bias_pass);
  EXPECT_EQ(a.bias_evaluated, b.bias_evaluated);
  EXPECT_EQ(a.bias.pass, b.bias.pass);
  EXPECT_EQ(a.bias.slope_distance, b.bias.slope_distance);
  EXPECT_EQ(a.bias.fit.slope, b.bias.fit.slope);
  EXPECT_EQ(a.bias.fit.intercept, b.bias.fit.intercept);
  EXPECT_EQ(a.codec_error, b.codec_error);
  EXPECT_EQ(a.fallback_codec, b.fallback_codec);
  ASSERT_EQ(a.members.size(), b.members.size());
  for (std::size_t i = 0; i < a.members.size(); ++i) {
    SCOPED_TRACE("member slot " + std::to_string(i));
    expect_eval_eq(a.members[i], b.members[i]);
  }
}

void expect_variable_eq(const VariableResult& a, const VariableResult& b) {
  SCOPED_TRACE("variable " + a.variable);
  EXPECT_EQ(a.variable, b.variable);
  EXPECT_EQ(a.is_3d, b.is_3d);
  EXPECT_EQ(a.fill, b.fill);
  expect_summary_eq(a.character.summary, b.character.summary);
  EXPECT_EQ(a.character.lossless_cr, b.character.lossless_cr);
  EXPECT_EQ(a.netcdf4_cr, b.netcdf4_cr);
  EXPECT_EQ(a.fpzip32_cr, b.fpzip32_cr);
  EXPECT_EQ(a.grib_decimal_scale, b.grib_decimal_scale);
  EXPECT_EQ(a.grib_tuning_passed, b.grib_tuning_passed);
  EXPECT_EQ(a.test_members, b.test_members);
  EXPECT_EQ(a.processing_failed, b.processing_failed);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t v = 0; v < a.verdicts.size(); ++v) {
    SCOPED_TRACE("variant " + a.verdicts[v].codec);
    expect_verdict_eq(a.verdicts[v], b.verdicts[v]);
  }
}

class OocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ensemble_ = new climate::EnsembleGenerator(small_spec());
    const OocConfig cfg = ooc_config();
    incore_ = new SuiteResults(run_suite(*ensemble_, cfg.suite, {"U", "SST"}));
    streaming_ = new SuiteResults(run_suite_streaming(*ensemble_, cfg, {"U", "SST"}));
  }
  static void TearDownTestSuite() {
    delete streaming_;
    delete incore_;
    delete ensemble_;
    streaming_ = nullptr;
    incore_ = nullptr;
    ensemble_ = nullptr;
  }

  static climate::EnsembleGenerator* ensemble_;
  static SuiteResults* incore_;
  static SuiteResults* streaming_;
};

climate::EnsembleGenerator* OocTest::ensemble_ = nullptr;
SuiteResults* OocTest::incore_ = nullptr;
SuiteResults* OocTest::streaming_ = nullptr;

TEST_F(OocTest, StreamingStatsMatchesEnsembleStatsBitwise) {
  for (const char* name : {"U", "SST"}) {
    SCOPED_TRACE(name);
    const climate::VariableSpec& spec = ensemble_->variable(name);
    const EnsembleStats stats(ensemble_->ensemble_fields(spec));

    const std::string path =
        (std::filesystem::path(::testing::TempDir()) / (spec.name + ".cnk1")).string();
    stage_variable_at(*ensemble_, spec, path, 1024);
    const ncio::ChunkStoreReader store(path);
    const StreamingStats streaming(store);

    ASSERT_EQ(streaming.member_count(), stats.member_count());
    EXPECT_EQ(streaming.point_count(), stats.point_count());
    EXPECT_TRUE(std::equal(streaming.mask().begin(), streaming.mask().end(),
                           stats.mask().begin(), stats.mask().end()));
    EXPECT_EQ(streaming.rmsz_distribution(), stats.rmsz_distribution());
    EXPECT_EQ(streaming.enmax_distribution(), stats.enmax_distribution());
    EXPECT_EQ(streaming.rmsz_range(), stats.rmsz_range());
    EXPECT_EQ(streaming.enmax_range(), stats.enmax_range());
    EXPECT_EQ(streaming.global_means(), stats.global_means());
    for (std::size_t m = 0; m < stats.member_count(); ++m) {
      EXPECT_EQ(streaming.member_range(m), stats.member_range(m));
      const stats::Summary expected = stats::summarize(
          std::span<const float>(stats.member(m).data), stats.mask());
      expect_summary_eq(streaming.member_summary(m), expected);
    }
    std::filesystem::remove(path);
  }
}

TEST_F(OocTest, SuiteCsvIsByteIdenticalToInCore) {
  EXPECT_EQ(suite_results_csv(*streaming_), suite_results_csv(*incore_));
}

TEST_F(OocTest, SuiteResultsMatchInCoreBitwise) {
  EXPECT_EQ(streaming_->variant_names, incore_->variant_names);
  ASSERT_EQ(streaming_->variables.size(), incore_->variables.size());
  for (std::size_t i = 0; i < streaming_->variables.size(); ++i) {
    expect_variable_eq(streaming_->variables[i], incore_->variables[i]);
  }
}

TEST_F(OocTest, HybridFromStreamedResultsEqualsInCoreTwin) {
  // Streamed verdicts carry the catalog's variant names, so the §5.4
  // hybrid builds from them exactly as from the in-core twin's.
  EXPECT_EQ(streaming_->variant_names, comp::paper_variant_names());
  for (const char* family : {"GRIB2", "ISABELA", "fpzip", "APAX", "NetCDF-4"}) {
    SCOPED_TRACE(family);
    const HybridSummary expected = build_hybrid(*incore_, family);
    const HybridSummary h = build_hybrid(*streaming_, family);
    EXPECT_EQ(h.family, expected.family);
    EXPECT_EQ(h.avg_cr, expected.avg_cr);
    EXPECT_EQ(h.best_cr, expected.best_cr);
    EXPECT_EQ(h.worst_cr, expected.worst_cr);
    EXPECT_EQ(h.avg_pearson, expected.avg_pearson);
    EXPECT_EQ(h.avg_nrmse, expected.avg_nrmse);
    EXPECT_EQ(h.avg_enmax, expected.avg_enmax);
    EXPECT_EQ(h.variant_counts, expected.variant_counts);
    ASSERT_EQ(h.selections.size(), expected.selections.size());
    for (std::size_t i = 0; i < h.selections.size(); ++i) {
      EXPECT_EQ(h.selections[i].variable, expected.selections[i].variable);
      EXPECT_EQ(h.selections[i].variant, expected.selections[i].variant);
      EXPECT_EQ(h.selections[i].cr, expected.selections[i].cr);
      EXPECT_EQ(h.selections[i].pearson, expected.selections[i].pearson);
      EXPECT_EQ(h.selections[i].nrmse, expected.selections[i].nrmse);
      EXPECT_EQ(h.selections[i].enmax, expected.selections[i].enmax);
      EXPECT_EQ(h.selections[i].lossless_fallback, expected.selections[i].lossless_fallback);
    }
  }
}

TEST_F(OocTest, ChunkElemsBelowTheFloorAreRejectedOnBothLegs) {
  OocConfig cfg = ooc_config();
  cfg.chunk_elems = 512;
  cfg.suite.chunk_elems = 512;
  // The message names the setting and the rejected value.
  const auto expect_rejected = [](const auto& run) {
    try {
      run();
      ADD_FAILURE() << "chunk_elems = 512 was accepted";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("chunk_elems = 512"), std::string::npos) << e.what();
    }
  };
  expect_rejected([&] { (void)run_suite(*ensemble_, cfg.suite, {"U"}); });
  expect_rejected([&] { (void)run_suite_streaming(*ensemble_, cfg, {"U"}); });
}

TEST_F(OocTest, StreamingIsWorkerCountInvariant) {
  const OocConfig cfg = ooc_config();
  const climate::VariableSpec& spec = ensemble_->variable("SST");
  VariableResult serial;
  VariableResult parallel;
  {
    ScopedScheduler sched(1);
    serial = run_variable_streaming(*ensemble_, spec, cfg);
  }
  {
    ScopedScheduler sched(4);
    parallel = run_variable_streaming(*ensemble_, spec, cfg);
  }
  expect_variable_eq(serial, parallel);
  expect_variable_eq(serial, incore_->variable("SST"));
}

TEST_F(OocTest, MemoryBudgetCapRejectsOversizedWorkingSet) {
  OocConfig cfg = ooc_config();
  cfg.suite.variable_retry_limit = 0;
  cfg.suite.continue_on_variable_error = false;
  cfg.memory_budget_bytes = 10'000;  // far below the per-point arrays alone
  const climate::VariableSpec& spec = ensemble_->variable("U");
  EXPECT_THROW(run_variable_streaming(*ensemble_, spec, cfg), Error);
}

// ---------------------------------------------------------------------------
// Multi-variable concurrency under one shared budget.

TEST_F(OocTest, SharedBudgetContentionIsDeadlockFreeAndInvisible) {
  // Eight variables race a cap sized for roughly two of the largest
  // working sets, at scheduler widths 1 and 4. The run must complete (no
  // deadlock), hold the cap as a hard bound, park at least one admission,
  // balance the budget back to zero, and produce byte-identical results
  // to the serial schedule.
  std::vector<std::string> vars;
  for (const climate::VariableSpec& v : ensemble_->catalog()) {
    vars.push_back(v.name);
    if (vars.size() == 8) break;
  }
  ASSERT_EQ(vars.size(), 8u);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    ScopedScheduler sched(workers);

    // The working-set bound depends on the scheduler width (verify lane
    // buffers), so size the cap inside the scope that runs the jobs.
    std::uint64_t max_ws = 0;
    for (const std::string& name : vars) {
      max_ws = std::max(max_ws, ooc_working_set_bytes(
                                    *ensemble_, ensemble_->variable(name), 1024));
    }
    OocConfig cfg = ooc_config();
    cfg.memory_budget_bytes = 2 * max_ws;

    cfg.parallel_variables = 1;
    const SuiteResults serial = run_suite_streaming(*ensemble_, cfg, vars);

    util::MemoryBudget shared(cfg.memory_budget_bytes);
    cfg.shared_budget = &shared;
    cfg.parallel_variables = 8;
    const SuiteResults parallel = run_suite_streaming(*ensemble_, cfg, vars);

    EXPECT_LE(shared.peak_logical_bytes(), cfg.memory_budget_bytes);
    EXPECT_EQ(shared.charged_bytes(), 0u);
    EXPECT_GT(shared.reserve_waits(), 0u);

    ASSERT_EQ(parallel.variables.size(), serial.variables.size());
    for (std::size_t i = 0; i < serial.variables.size(); ++i) {
      ASSERT_FALSE(serial.variables[i].processing_failed)
          << serial.variables[i].variable;
      ASSERT_FALSE(parallel.variables[i].processing_failed)
          << parallel.variables[i].variable;
      expect_variable_eq(parallel.variables[i], serial.variables[i]);
    }
    EXPECT_EQ(suite_results_csv(parallel), suite_results_csv(serial));
  }
}

TEST_F(OocTest, OversizedReservationStillFailsFastUnderSharedBudget) {
  // A working set larger than the whole cap can never be admitted;
  // parking it would hang the suite, so it must throw (and with retries
  // and containment off, propagate).
  OocConfig cfg = ooc_config();
  cfg.suite.variable_retry_limit = 0;
  cfg.suite.continue_on_variable_error = false;
  cfg.parallel_variables = 2;
  cfg.memory_budget_bytes = 10'000;  // far below any working set
  EXPECT_THROW(run_suite_streaming(*ensemble_, cfg, {"U", "SST"}), Error);
}

// ---------------------------------------------------------------------------
// Content-addressed spill reuse.

std::string fresh_store_dir(const char* name) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

std::vector<std::filesystem::path> spill_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& de : std::filesystem::directory_iterator(dir)) {
    if (de.is_regular_file() && de.path().extension() == ".cnk1") {
      files.push_back(de.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Runs `fn` with tracing freshly enabled and returns the counters it
/// produced, restoring the previous trace state afterwards.
template <typename Fn>
std::map<std::string, std::uint64_t> traced_counters(Fn&& fn) {
  const bool had_trace = trace::enabled();
  trace::reset();
  trace::set_enabled(true);
  fn();
  const std::map<std::string, std::uint64_t> counters = trace::counters();
  trace::set_enabled(had_trace);
  trace::reset();
  return counters;
}

TEST_F(OocTest, OverCapVariableFailsBeforeStaging) {
  // A standalone variable whose working set exceeds the cap, here by one
  // byte, is refused at admission, naming the reservation, before it
  // synthesizes or writes any of its spill.
  OocConfig cfg = ooc_config();
  const climate::VariableSpec& spec = ensemble_->variable("U");
  cfg.memory_budget_bytes = ooc_working_set_bytes(*ensemble_, spec, cfg.chunk_elems) - 1;
  std::string message;
  const auto counters = traced_counters([&] {
    try {
      (void)run_variable_streaming(*ensemble_, spec, cfg);
    } catch (const Error& e) {
      message = e.what();
    }
  });
  EXPECT_NE(message.find("ooc.variable_working_set"), std::string::npos) << message;
  EXPECT_EQ(counters.at("ooc.variables_staged"), 0u);
}

TEST_F(OocTest, SweepReadsEachChunkOnceAndBuildsOnePlanPerIsabelaChunk) {
  // The member-major sweep walks each (member, chunk) of the store once
  // for all nine variants, and builds each chunk's ISABELA plan once for
  // the three ISA variants. One test member keeps the GRIB2 tuning probe
  // free of early breaks, so every read is accounted for exactly.
  OocConfig cfg = ooc_config();
  cfg.suite.test_member_count = 1;
  ASSERT_TRUE(cfg.suite.run_bias);
  const climate::VariableSpec& spec = ensemble_->variable("U");
  ASSERT_FALSE(spec.has_fill);  // no fill: ISABELA is the only plan-sharing run
  const climate::Grid& grid = ensemble_->grid();
  const comp::Shape shape = spec.is_3d ? comp::Shape::d2(grid.levels(), grid.columns())
                                       : comp::Shape::d1(grid.columns());
  const std::uint64_t chunks = chunk_partition(shape, cfg.chunk_elems).size() - 1;
  const std::uint64_t members = ensemble_->members();
  ASSERT_GT(chunks, 1u);

  const auto counters = traced_counters(
      [&] { (void)run_variable_streaming(*ensemble_, spec, cfg); });

  // Reads: two stats passes over every member, the Deflate and fpzip-32
  // probes of one member, one test member per GRIB2 tuning attempt, and
  // the sweep — once per member, not once per variant.
  const std::uint64_t attempts = counters.at("grib.tune_attempts");
  ASSERT_GT(attempts, 0u);
  EXPECT_EQ(counters.at("ooc.chunks_read"), chunks * (2 * members + 2 + attempts + members));
  EXPECT_EQ(counters.at("prep.plan_built"), members * chunks);
  EXPECT_EQ(counters.at("prep.plan_reused"), 2 * members * chunks);
  EXPECT_EQ(counters.at("sweep.variant_tasks"), 1u);  // one member-major pass
}

TEST_F(OocTest, StreamedIsabelaBuildsSplineBasesOnlyForTailWindows) {
  // Full ISABELA windows fit and evaluate on the one shared basis of the
  // codec shape (1024, 32), which exists before the run. The only bases a
  // streamed variable builds are the transient ones of its chunks' short
  // tail windows: one per chunk plan (shared by the three ISA variants)
  // and one per ISA decode of the chunk, three per member.
  OocConfig cfg = ooc_config();
  cfg.suite.test_member_count = 1;
  ASSERT_TRUE(cfg.suite.run_bias);
  const climate::VariableSpec& spec = ensemble_->variable("U");
  ASSERT_FALSE(spec.has_fill);
  const climate::Grid& grid = ensemble_->grid();
  const comp::Shape shape = spec.is_3d ? comp::Shape::d2(grid.levels(), grid.columns())
                                       : comp::Shape::d1(grid.columns());
  const comp::IsabelaCodec codec(0.5);
  const std::vector<std::size_t> bounds = chunk_partition(shape, cfg.chunk_elems);
  std::uint64_t tails = 0;
  for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
    tails += (bounds[c + 1] - bounds[c]) % codec.window() != 0 ? 1 : 0;
  }
  const std::uint64_t members = ensemble_->members();
  ASSERT_GT(tails, 0u);

  const std::vector<float> warm(codec.window(), 1.0f);
  (void)codec.encode(warm, comp::Shape::d1(warm.size()));  // the shared basis exists
  const auto counters = traced_counters(
      [&] { (void)run_variable_streaming(*ensemble_, spec, cfg); });
  EXPECT_EQ(counters.at("isabela.basis_built"), tails * members * (1 + 3));
}

TEST_F(OocTest, SpillReuseWarmRunSkipsSynthesisAndMatchesBitwise) {
  OocConfig cfg = ooc_config();
  cfg.reuse_spill = true;
  cfg.spill_dir = fresh_store_dir("reuse_warm");

  const auto synth_spans = [] {
    const auto agg = trace::aggregate_by_label();
    const auto it = agg.find("ensemble.synthesize");
    return it == agg.end() ? std::uint64_t{0} : it->second.count;
  };

  SuiteResults cold;
  std::uint64_t cold_spans = 0;
  traced_counters([&] {
    cold = run_suite_streaming(*ensemble_, cfg, {"U", "SST"});
    cold_spans = synth_spans();
  });
  EXPECT_EQ(spill_files(cfg.spill_dir).size(), 2u);
  // The cold run's spans prove the warm run's zero below is not vacuous.
  EXPECT_GT(cold_spans, 0u);

  SuiteResults warm;
  std::uint64_t warm_spans = 1;
  const auto counters = traced_counters([&] {
    warm = run_suite_streaming(*ensemble_, cfg, {"U", "SST"});
    warm_spans = synth_spans();
  });

  // Every variable reused its spill; nothing was synthesized or staged.
  EXPECT_EQ(counters.at("ooc.spill_reused"), 2u);
  EXPECT_EQ(counters.at("ooc.chunks_written"), 0u);
  EXPECT_EQ(warm_spans, 0u);

  ASSERT_EQ(warm.variables.size(), cold.variables.size());
  for (std::size_t i = 0; i < cold.variables.size(); ++i) {
    expect_variable_eq(warm.variables[i], cold.variables[i]);
  }
  EXPECT_EQ(suite_results_csv(warm), suite_results_csv(cold));
  EXPECT_EQ(suite_results_csv(warm), suite_results_csv(*incore_));
}

TEST_F(OocTest, RottenSpillHeaderIsDetectedAtProbeDeletedAndRestaged) {
  OocConfig cfg = ooc_config();
  cfg.reuse_spill = true;
  cfg.spill_dir = fresh_store_dir("reuse_rot_header");
  const SuiteResults cold = run_suite_streaming(*ensemble_, cfg, {"SST"});

  const auto files = spill_files(cfg.spill_dir);
  ASSERT_EQ(files.size(), 1u);
  {
    // Flip one bit inside the checksummed header region: the reuse probe
    // must reject the store before trusting anything in it.
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(20);
    char b = 0;
    f.get(b);
    f.seekp(20);
    f.put(static_cast<char>(b ^ 0x10));
  }

  SuiteResults warm;
  const auto counters = traced_counters(
      [&] { warm = run_suite_streaming(*ensemble_, cfg, {"SST"}); });

  EXPECT_EQ(counters.at("ooc.spill_corrupt"), 1u);
  EXPECT_EQ(counters.at("ooc.spill_reused"), 0u);
  ASSERT_FALSE(warm.variables[0].processing_failed);
  expect_variable_eq(warm.variables[0], cold.variables[0]);

  // The restaged spill is valid again and satisfies the next run.
  const auto restaged = spill_files(cfg.spill_dir);
  ASSERT_EQ(restaged.size(), 1u);
  EXPECT_NO_THROW(ncio::ChunkStoreReader(restaged[0].string()));
}

TEST_F(OocTest, ReusedSpillFailingMidRunIsInvalidatedAndRestagedByRetry) {
  OocConfig cfg = ooc_config();
  cfg.reuse_spill = true;
  cfg.spill_dir = fresh_store_dir("reuse_rot_payload");
  const SuiteResults cold = run_suite_streaming(*ensemble_, cfg, {"SST"});

  const auto files = spill_files(cfg.spill_dir);
  ASSERT_EQ(files.size(), 1u);
  {
    // Header and table stay valid, so the probe accepts the reuse; the
    // payload checksum mismatch then surfaces mid-run, which must
    // invalidate (delete + count) the spill and succeed via the guarded
    // retry's fresh staging.
    const ncio::ChunkStoreReader reader(files[0].string());
    const std::streamoff payload_at = static_cast<std::streamoff>(
        reader.header_bytes() + reader.table_bytes());
    std::fstream f(files[0], std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(payload_at);
    char b = 0;
    f.get(b);
    f.seekp(payload_at);
    f.put(static_cast<char>(b ^ 0x01));
  }

  SuiteResults warm;
  const auto counters = traced_counters(
      [&] { warm = run_suite_streaming(*ensemble_, cfg, {"SST"}); });

  EXPECT_EQ(counters.at("ooc.spill_reused"), 1u);
  EXPECT_EQ(counters.at("ooc.spill_invalidated"), 1u);
  EXPECT_EQ(counters.at("suite.variable_retries"), 1u);
  ASSERT_FALSE(warm.variables[0].processing_failed);
  expect_variable_eq(warm.variables[0], cold.variables[0]);
}

TEST_F(OocTest, ReadChunkFaultOnReusedSpillInvalidatesAndRetries) {
  OocConfig cfg = ooc_config();
  cfg.reuse_spill = true;
  cfg.spill_dir = fresh_store_dir("reuse_failpoint");
  const SuiteResults cold = run_suite_streaming(*ensemble_, cfg, {"SST"});
  ASSERT_EQ(spill_files(cfg.spill_dir).size(), 1u);

  // An injected one-shot read fault on a *reused* spill must travel the
  // same invalidation path as real rot: delete, count, restage, succeed.
  SuiteResults warm;
  const auto counters = traced_counters([&] {
    fail::ScopedFailpoint fp("ncio.read_chunk", fail::Trigger::once());
    warm = run_suite_streaming(*ensemble_, cfg, {"SST"});
  });

  EXPECT_EQ(counters.at("ooc.spill_reused"), 1u);
  EXPECT_EQ(counters.at("ooc.spill_invalidated"), 1u);
  ASSERT_FALSE(warm.variables[0].processing_failed);
  expect_variable_eq(warm.variables[0], cold.variables[0]);
}

TEST_F(OocTest, SpillStoreEvictsOldestBeyondByteBudget) {
  OocConfig cfg = ooc_config();
  cfg.reuse_spill = true;
  cfg.spill_dir = fresh_store_dir("reuse_evict");

  // Stage two spills, then re-run with a budget that only fits one: the
  // eviction pass after each variable must delete the older spill and
  // keep the one just used.
  const SuiteResults cold = run_suite_streaming(*ensemble_, cfg, {"U", "SST"});
  ASSERT_EQ(spill_files(cfg.spill_dir).size(), 2u);

  std::uint64_t largest = 0;
  for (const auto& f : spill_files(cfg.spill_dir)) {
    largest = std::max<std::uint64_t>(largest, std::filesystem::file_size(f));
  }
  cfg.spill_budget_bytes = largest;
  const SuiteResults warm = run_suite_streaming(*ensemble_, cfg, {"SST"});
  ASSERT_FALSE(warm.variables[0].processing_failed);
  expect_variable_eq(warm.variables[0], cold.variables[1]);

  const auto kept = spill_files(cfg.spill_dir);
  ASSERT_EQ(kept.size(), 1u);
  // The survivor is SST's spill (its name carries the variable).
  EXPECT_NE(kept[0].filename().string().find("SST"), std::string::npos);
}

// ---------------------------------------------------------------------------
// SpillSession: per-run isolation of non-reusable spills.

TEST(SpillSession, UniquePerInstanceAndRemovedOnExit) {
  const std::string base = fresh_store_dir("session_unique");
  std::string d1, d2;
  {
    const SpillSession a(base);
    const SpillSession b(base);
    d1 = a.dir();
    d2 = b.dir();
    EXPECT_NE(d1, d2);
    EXPECT_TRUE(std::filesystem::is_directory(d1));
    EXPECT_TRUE(std::filesystem::is_directory(d2));
  }
  EXPECT_FALSE(std::filesystem::exists(d1));
  EXPECT_FALSE(std::filesystem::exists(d2));
}

/// Stage-and-verify one tiny store named `X.cnk1` inside a fresh
/// SpillSession under `base`. Returns 0 on success; used by both halves
/// of the two-process regression (the child must not touch gtest).
int stage_in_session(const std::string& base, std::uint64_t seed) {
  try {
    const SpillSession session(base);
    const std::string path = session.dir() + "/X.cnk1";
    const std::vector<std::size_t> offsets = {0, 64};
    const auto data = testgen::smooth_field(64, seed);
    ncio::ChunkStoreWriter writer(path, "X", comp::Shape::d1(64), std::nullopt, 1,
                                  offsets);
    writer.write_chunk(0, 0, data);
    writer.finish();
    const ncio::ChunkStoreReader reader(path);
    std::vector<float> got(64);
    reader.read_chunk(0, 0, got);
    return std::equal(got.begin(), got.end(), data.begin()) ? 0 : 1;
  } catch (...) {
    return 2;
  }
}

TEST(SpillSession, TwoProcessesShareOneSpillDirWithoutCollision) {
  // The regression this pins: before per-run session directories, two
  // processes staging the same variable into one spill_dir raced on the
  // same "<dir>/X.cnk1" final name, and one process could read (or
  // delete) the other's bytes. Each process now stages into its own
  // "cesm-spill-<pid>-<token>" subdirectory.
  const std::string base = fresh_store_dir("session_two_proc");
  const pid_t child = fork();
  ASSERT_NE(child, -1);
  if (child == 0) {
    // Child: plain syscalls + library code only, result via exit status.
    _exit(stage_in_session(base, 0xc411d));
  }
  EXPECT_EQ(stage_in_session(base, 0x9a9e47), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  // Both sessions cleaned up after themselves.
  EXPECT_TRUE(std::filesystem::is_empty(base));
}

TEST_F(OocTest, FieldRangeMatchesFullSynthesis) {
  const climate::VariableSpec& spec = ensemble_->variable("SST");
  const std::size_t n = ensemble_->field_elems(spec);
  const climate::Field full = ensemble_->field(spec, 4);
  ASSERT_EQ(full.data.size(), n);
  // Deliberately odd split points, including a 1-element range.
  const std::size_t cuts[] = {0, 1, 511, 512, 1023, n};
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    const std::size_t lo = cuts[c];
    const std::size_t hi = cuts[c + 1];
    std::vector<float> out(hi - lo);
    ensemble_->field_range(spec, 4, lo, hi, out);
    EXPECT_TRUE(std::equal(out.begin(), out.end(), full.data.begin() + lo))
        << "range [" << lo << ", " << hi << ")";
  }
}

}  // namespace
}  // namespace cesm::core
