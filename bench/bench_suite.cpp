// End-to-end suite benchmark: run_suite under two scheduler shapes.
//
//   sched_serial   1 worker — the plain serial reference;
//   sched_full     N workers with nested work-stealing parallelism.
//
// Each timed repetition is truly end-to-end: it synthesizes a fresh
// ensemble and runs the whole §4 methodology over the selected variables,
// so the speedup covers synthesis, stats builds, GRIB tuning, PVT verify
// and the chunked codec paths together. After timing, one traced pass
// under sched_full produces the per-phase breakdown, and the two
// configurations' results are cross-checked bitwise — a speedup that
// changed a verdict would be a bug, not a feature.
//
// Output: a table on stdout and BENCH_suite.json (override with
// --out=PATH). --quick shrinks members/variables for CI smoke runs;
// --threads=N pins the worker count (default: CESM_THREADS env, then
// hardware concurrency; clamped to the hardware).
//
// --full-grid adds three out-of-core legs:
//   multi_var    several paper-scale 2-D variables streamed as concurrent
//                jobs under ONE shared CESM_MEM_MB budget, serial
//                (1 job) vs parallel (4 jobs) vs in-core — all three must
//                be bitwise identical, and the parallel leg's peak RSS
//                and logical high-water mark are recorded for the CI
//                budget gate;
//   spill_reuse  the same variables run cold then warm against a
//                content-addressed spill store (--reuse-spill semantics):
//                the warm run must show ZERO ensemble.synthesize spans
//                and an identical CSV;
//   full_grid    one paper-scale 3-D variable streamed chunk-by-chunk
//                under the budget, then re-run through the in-core
//                pipeline on the same chunk partition.
// The JSON records peak RSS figures, phase breakdowns, and bitwise-parity
// flags the CI gates (and the exit code) require to hold.
//
// The variant_sweep phase times the variant sweep itself: the same warmed
// suite slice swept member-major (variant_jobs=1, one pass over all nine
// variants) and per run (variant_jobs=0, one task per plan-sharing run),
// with bitwise parity of the two, byte parity of every plan-driven
// stream and nonzero plan reuse baked into the exit code.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "core/export.h"
#include "core/ooc.h"
#include "core/suite.h"
#include "util/cache.h"
#include "util/memory.h"
#include "util/scheduler.h"
#include "util/signals.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace {

using namespace cesm;

struct ConfigResult {
  std::string name;
  double seconds = 0.0;  ///< best-of-reps end-to-end wall time
  SchedulerStats sched;  ///< accumulated over all reps
  core::SuiteResults results;  ///< from the last rep (determinism check)
};

/// One timed configuration: `threads` workers (0 = default resolution).
ConfigResult run_config(const std::string& name, std::size_t threads, int reps,
                        const bench::Options& options,
                        const std::vector<std::string>& variables) {
  ConfigResult out;
  out.name = name;
  ScopedScheduler scoped(threads);
  scoped.scheduler().reset_stats();
  out.seconds = 1e300;
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    const climate::EnsembleGenerator ensemble = bench::make_ensemble(options);
    out.results = core::run_suite(ensemble, bench::suite_config(options), variables);
    out.seconds = std::min(out.seconds, sw.seconds());
  }
  out.sched = scoped.scheduler().stats();
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Bitwise cross-check of two configurations' suite outputs. Returns
/// false (after printing the first divergence) when any verdict, ratio,
/// or tally differs — the scheduler's determinism contract says none may.
bool identical_results(const core::SuiteResults& x, const core::SuiteResults& y,
                       const std::string& xn, const std::string& yn) {
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "DETERMINISM FAILURE: %s differs between %s and %s\n",
                 what.c_str(), xn.c_str(), yn.c_str());
    return false;
  };
  if (x.variant_names != y.variant_names) return fail("variant_names");
  if (x.variables.size() != y.variables.size()) return fail("variable count");
  for (std::size_t i = 0; i < x.variables.size(); ++i) {
    const core::VariableResult& a = x.variables[i];
    const core::VariableResult& b = y.variables[i];
    if (a.variable != b.variable) return fail("variable order");
    if (a.test_members != b.test_members) return fail(a.variable + " test_members");
    if (a.grib_decimal_scale != b.grib_decimal_scale)
      return fail(a.variable + " grib_decimal_scale");
    if (!same_bits(a.netcdf4_cr, b.netcdf4_cr)) return fail(a.variable + " netcdf4_cr");
    if (!same_bits(a.fpzip32_cr, b.fpzip32_cr)) return fail(a.variable + " fpzip32_cr");
    if (a.verdicts.size() != b.verdicts.size()) return fail(a.variable + " verdicts");
    for (std::size_t v = 0; v < a.verdicts.size(); ++v) {
      const core::VariableVerdict& va = a.verdicts[v];
      const core::VariableVerdict& vb = b.verdicts[v];
      if (va.rho_pass != vb.rho_pass || va.rmsz_pass != vb.rmsz_pass ||
          va.enmax_pass != vb.enmax_pass || va.bias_pass != vb.bias_pass)
        return fail(a.variable + "/" + va.codec + " pass flags");
      if (!same_bits(va.mean_cr, vb.mean_cr))
        return fail(a.variable + "/" + va.codec + " mean_cr");
      if (va.members.size() != vb.members.size())
        return fail(a.variable + "/" + va.codec + " member count");
      for (std::size_t m = 0; m < va.members.size(); ++m) {
        if (!same_bits(va.members[m].cr, vb.members[m].cr) ||
            !same_bits(va.members[m].metrics.pearson, vb.members[m].metrics.pearson) ||
            !same_bits(va.members[m].rmsz_reconstructed,
                       vb.members[m].rmsz_reconstructed))
          return fail(a.variable + "/" + va.codec + " member metrics");
      }
    }
  }
  return true;
}

struct PhaseRow {
  std::string label;
  std::uint64_t count = 0;
  double total_seconds = 0.0;
};

/// The memoization phase: the same suite slice timed with the cache off,
/// cold (first run under a fresh cache, which also warms the optional
/// CESM_CACHE_DIR disk tier) and warm (second run against the tiers the
/// cold run filled). All three must be bit-identical.
struct CacheBench {
  double off_seconds = 0.0;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  util::CacheStats mem;  ///< memory-tier counters over cold + warm
  bool parity = false;
  bool disk_tier = false;

  [[nodiscard]] double warm_speedup() const {
    return warm_seconds > 0.0 ? off_seconds / warm_seconds : 0.0;
  }
  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(mem.hits + mem.misses);
    return total > 0.0 ? static_cast<double>(mem.hits) / total : 0.0;
  }
};

CacheBench run_cache_phase(const bench::Options& options,
                           const std::vector<std::string>& variables,
                           const std::string& csv_path) {
  CacheBench bench;
  ScopedScheduler scoped(options.threads);
  const climate::EnsembleGenerator ensemble = bench::make_ensemble(options);
  core::EnsembleCache& cache = core::EnsembleCache::global();

  util::CacheConfig off = util::CacheConfig::from_env();
  off.enabled = false;
  // The cache bench measures the cache: honour CESM_CACHE_MB/_DIR from
  // the environment but run the cold/warm legs enabled regardless of
  // CESM_CACHE (the off leg is the disabled measurement).
  util::CacheConfig on = util::CacheConfig::from_env();
  on.enabled = true;

  cache.configure(off);
  Stopwatch sw_off;
  const core::SuiteResults r_off =
      core::run_suite(ensemble, bench::suite_config(options), variables);
  bench.off_seconds = sw_off.seconds();

  cache.configure(on);
  bench.disk_tier = cache.has_disk_tier();
  Stopwatch sw_cold;
  const core::SuiteResults r_cold =
      core::run_suite(ensemble, bench::suite_config(options), variables);
  bench.cold_seconds = sw_cold.seconds();

  Stopwatch sw_warm;
  const core::SuiteResults r_warm =
      core::run_suite(ensemble, bench::suite_config(options), variables);
  bench.warm_seconds = sw_warm.seconds();
  bench.mem = cache.memory_stats();

  bench.parity = identical_results(r_off, r_cold, "cache_off", "cache_cold") &&
                 identical_results(r_cold, r_warm, "cache_cold", "cache_warm");

  // The warm run's full results table, for cross-process parity gates: two
  // bench_suite processes sharing one CESM_CACHE_DIR must emit identical
  // CSVs whether their entries were computed or read back from disk.
  core::write_text_file(csv_path, core::suite_results_csv(r_warm));

  // Leave the cache in its environment-default state for write_profile
  // and any embedding harness.
  cache.configure(util::CacheConfig::from_env());
  return bench;
}

/// --full-grid: the out-of-core leg. One 3-D variable at the paper's
/// ne30-scale grid is streamed chunk-by-chunk under the CESM_MEM_MB
/// logical budget, then the same variable runs through the in-core
/// pipeline with the same chunk partition. The two results must be
/// bit-identical (CSV bytes and every verdict field), and the streaming
/// peak RSS is recorded next to the in-core peak so the CI gate can hold
/// the "bounded memory" promise to measured numbers.
struct FullGridBench {
  bool enabled = false;
  std::string variable;
  std::size_t members = 0;
  std::uint64_t elems_per_member = 0;
  std::size_t chunk_elems = 0;
  std::uint64_t budget_cap_bytes = 0;  ///< CESM_MEM_MB (0 = uncapped)
  bool rss_reset_supported = false;    ///< kernel accepted the HWM reset
  core::OocPhaseStats phases;
  double streaming_seconds = 0.0;
  double incore_seconds = 0.0;
  std::uint64_t streaming_peak_rss = 0;
  std::uint64_t incore_peak_rss = 0;
  bool parity = false;
};

FullGridBench run_full_grid_phase(const bench::Options& options) {
  FullGridBench fg;
  fg.enabled = true;
  fg.variable = "U";  // 3-D spotlight: the largest per-member field
  ScopedScheduler scoped(options.threads);

  // Always the paper's grid — that is the point of the mode. --quick only
  // shrinks the member count (still big enough that the in-core twin's
  // resident ensemble dwarfs the streaming working set).
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::paper();
  spec.members = options.quick ? 57 : 101;
  fg.members = spec.members;
  const climate::EnsembleGenerator ensemble(spec);
  const climate::VariableSpec& var = ensemble.variable(fg.variable);
  fg.elems_per_member = ensemble.field_elems(var);

  core::OocConfig ooc;
  ooc.chunk_elems = 1 << 16;
  if (const char* dir = std::getenv("CESM_SPILL_DIR")) ooc.spill_dir = dir;
  ooc.memory_budget_bytes = util::memory_budget_bytes().value_or(0);
  ooc.suite = bench::suite_config(options);
  // The bias sweep round-trips every member through every variant; the
  // full-grid leg bounds itself to the three PVT tests (bias parity is
  // covered bit-for-bit by the unit tests on a small grid).
  ooc.suite.run_bias = false;
  ooc.suite.test_member_count = options.quick ? 2 : 3;
  // The in-core twin must measure through the identical chunk partition.
  ooc.suite.chunk_elems = ooc.chunk_elems;
  fg.chunk_elems = ooc.chunk_elems;
  fg.budget_cap_bytes = ooc.memory_budget_bytes;

  // Streaming leg first, from a fresh high-water mark: its peak RSS must
  // not inherit another phase's allocations. When the kernel cannot reset
  // the HWM the number can only over-report the streaming leg — gate-safe.
  fg.rss_reset_supported = util::reset_peak_rss();
  Stopwatch sw;
  core::SuiteResults streaming;
  streaming.variables.push_back(
      core::run_variable_streaming(ensemble, var, ooc, &fg.phases));
  core::derive_variant_names(streaming);
  fg.streaming_seconds = sw.seconds();
  fg.streaming_peak_rss = util::peak_rss_bytes();

  util::reset_peak_rss();
  sw.restart();
  core::SuiteResults incore;
  incore.variables.push_back(core::run_variable(ensemble, var, ooc.suite));
  core::derive_variant_names(incore);
  fg.incore_seconds = sw.seconds();
  fg.incore_peak_rss = util::peak_rss_bytes();

  fg.parity =
      identical_results(streaming, incore, "full_grid_streaming",
                        "full_grid_incore") &&
      core::suite_results_csv(streaming) == core::suite_results_csv(incore);
  return fg;
}

/// Shared setup for the 2-D multi-variable legs: a paper-scale ensemble
/// and the first `count` 2-D catalog variables (each one's working set is
/// a few MiB, so several fit side by side under the CI's CESM_MEM_MB cap
/// while the in-core twin of the 3-D spotlight would not).
std::vector<std::string> surface_variables(const climate::EnsembleGenerator& ens,
                                           std::size_t count) {
  std::vector<std::string> names;
  for (const climate::VariableSpec& v : ens.catalog()) {
    if (v.is_3d) continue;
    names.push_back(v.name);
    if (names.size() == count) break;
  }
  return names;
}

core::OocConfig surface_ooc_config(const bench::Options& options) {
  core::OocConfig ooc;
  ooc.chunk_elems = 1 << 16;
  if (const char* dir = std::getenv("CESM_SPILL_DIR")) ooc.spill_dir = dir;
  ooc.memory_budget_bytes = util::memory_budget_bytes().value_or(0);
  ooc.suite = bench::suite_config(options);
  ooc.suite.run_bias = false;
  ooc.suite.test_member_count = options.quick ? 2 : 3;
  ooc.suite.chunk_elems = ooc.chunk_elems;
  return ooc;
}

/// --full-grid: the multi-variable contention leg. Four paper-scale 2-D
/// variables are streamed under one shared CESM_MEM_MB budget three ways:
/// serially (1 job), as 4 concurrent jobs, and through the in-core
/// pipeline. All three must be bitwise identical — concurrency must not
/// be observable in the results — and the parallel leg's peak RSS plus
/// the shared budget's logical high-water mark and reserve-wait count are
/// recorded so the CI gate can hold "hard cap under contention" to
/// measured numbers.
struct MultiVarBench {
  bool enabled = false;
  std::vector<std::string> variables;
  std::size_t members = 0;
  std::size_t chunk_elems = 0;
  std::size_t parallel_jobs = 4;
  std::size_t workers = 0;             ///< scheduler width the legs ran at
  std::uint64_t budget_cap_bytes = 0;  ///< CESM_MEM_MB (0 = uncapped)
  bool rss_reset_supported = false;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  double incore_seconds = 0.0;
  std::uint64_t serial_peak_rss = 0;
  std::uint64_t parallel_peak_rss = 0;
  std::uint64_t parallel_peak_logical = 0;  ///< shared-budget high-water mark
  std::uint64_t reserve_waits = 0;          ///< admissions that had to park
  std::uint64_t leaked_bytes = 0;           ///< shared-budget balance after the run
  bool parity = false;

  [[nodiscard]] double speedup() const {
    return parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  }
};

MultiVarBench run_multi_var_phase(const bench::Options& options) {
  MultiVarBench mv;
  mv.enabled = true;
  ScopedScheduler scoped(options.threads);
  mv.workers = scoped.scheduler().thread_count();

  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::paper();
  spec.members = options.quick ? 57 : 101;
  mv.members = spec.members;
  const climate::EnsembleGenerator ensemble(spec);
  mv.variables = surface_variables(ensemble, 4);

  core::OocConfig ooc = surface_ooc_config(options);
  mv.chunk_elems = ooc.chunk_elems;
  mv.budget_cap_bytes = ooc.memory_budget_bytes;

  // Serial streaming reference first, from a fresh high-water mark.
  mv.rss_reset_supported = util::reset_peak_rss();
  ooc.parallel_variables = 1;
  Stopwatch sw;
  const core::SuiteResults serial =
      core::run_suite_streaming(ensemble, ooc, mv.variables);
  mv.serial_seconds = sw.seconds();
  mv.serial_peak_rss = util::peak_rss_bytes();

  // Parallel leg under a caller-owned shared budget so the admission
  // behaviour (peak, waits, and a zero balance afterwards) is observable.
  util::reset_peak_rss();
  util::MemoryBudget shared(ooc.memory_budget_bytes);
  ooc.shared_budget = &shared;
  ooc.parallel_variables = mv.parallel_jobs;
  sw.restart();
  const core::SuiteResults parallel =
      core::run_suite_streaming(ensemble, ooc, mv.variables);
  mv.parallel_seconds = sw.seconds();
  mv.parallel_peak_rss = util::peak_rss_bytes();
  mv.parallel_peak_logical = shared.peak_logical_bytes();
  mv.reserve_waits = shared.reserve_waits();
  mv.leaked_bytes = shared.charged_bytes();
  ooc.shared_budget = nullptr;

  // In-core twin last: its resident ensembles must not inflate the
  // streaming legs' RSS readings through allocator retention.
  sw.restart();
  const core::SuiteResults incore =
      core::run_suite(ensemble, ooc.suite, mv.variables);
  mv.incore_seconds = sw.seconds();

  mv.parity =
      identical_results(serial, parallel, "multi_var_serial", "multi_var_parallel") &&
      identical_results(serial, incore, "multi_var_serial", "multi_var_incore") &&
      core::suite_results_csv(serial) == core::suite_results_csv(parallel) &&
      core::suite_results_csv(serial) == core::suite_results_csv(incore);
  return mv;
}

/// --full-grid: the spill-reuse leg. Two 2-D variables stream twice
/// against a private content-addressed spill store (OocConfig::reuse_spill):
/// the cold run stages and keeps the spills, the warm run must reuse them —
/// zero "ensemble.synthesize" spans, "ooc.spill_reused" hits for every
/// variable, and a byte-identical CSV. The store directory is created
/// fresh and removed afterwards so leftovers from another process can
/// neither satisfy nor poison the measurement.
struct SpillReuseBench {
  bool enabled = false;
  std::vector<std::string> variables;
  double cold_seconds = 0.0;
  double warm_seconds = 0.0;
  std::uint64_t cold_synthesize_spans = 0;
  std::uint64_t warm_synthesize_spans = 0;
  std::uint64_t warm_spills_reused = 0;
  bool parity = false;
};

SpillReuseBench run_spill_reuse_phase(const bench::Options& options) {
  SpillReuseBench sr;
  sr.enabled = true;
  ScopedScheduler scoped(options.threads);

  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec::paper();
  spec.members = options.quick ? 57 : 101;
  const climate::EnsembleGenerator ensemble(spec);
  sr.variables = surface_variables(ensemble, 2);

  core::OocConfig ooc = surface_ooc_config(options);
  std::string base = ooc.spill_dir;
  const std::string store =
      base + "/cesm-reuse-bench-" + std::to_string(static_cast<long>(getpid()));
  std::filesystem::create_directories(store);
  ooc.spill_dir = store;
  ooc.reuse_spill = true;
  ooc.parallel_variables = 1;

  const auto synth_spans = [] {
    const auto agg = trace::aggregate_by_label();
    const auto it = agg.find("ensemble.synthesize");
    return it == agg.end() ? std::uint64_t{0} : it->second.count;
  };

  const bool had_trace = trace::enabled();
  trace::reset();
  trace::set_enabled(true);
  Stopwatch sw;
  const core::SuiteResults cold =
      core::run_suite_streaming(ensemble, ooc, sr.variables);
  sr.cold_seconds = sw.seconds();
  sr.cold_synthesize_spans = synth_spans();

  trace::reset();
  sw.restart();
  const core::SuiteResults warm =
      core::run_suite_streaming(ensemble, ooc, sr.variables);
  sr.warm_seconds = sw.seconds();
  sr.warm_synthesize_spans = synth_spans();
  const auto counters = trace::counters();
  if (const auto it = counters.find("ooc.spill_reused"); it != counters.end()) {
    sr.warm_spills_reused = it->second;
  }
  trace::reset();
  if (!had_trace) trace::set_enabled(false);

  sr.parity = identical_results(cold, warm, "spill_cold", "spill_warm") &&
              core::suite_results_csv(cold) == core::suite_results_csv(warm);
  std::error_code ec;
  std::filesystem::remove_all(store, ec);
  return sr;
}

/// The variant-sweep leg: one warmed in-core suite slice swept two ways —
///   member_major  variant_jobs=1: one pass per variable walks each
///                 member once for all nine variants (the default);
///   per_run       variant_jobs=0: one scheduler task per plan-sharing run
///                 of variants, each walking the members itself.
/// The ensemble cache is warmed first so the timings cover the sweep
/// itself (GRIB tuning + nine variant verifications per variable), not
/// synthesis. Both sweeps must be bitwise identical, a traced pass records
/// the sweep's counters, and every paper variant's plan-driven stream
/// (build_prep + encode_with_prep) is byte-compared against its direct
/// encode on a real member field — the contract plan sharing rests on,
/// held in the exit code.
struct VariantSweepBench {
  std::size_t workers = 0;
  double member_major_seconds = 0.0;
  double per_run_seconds = 0.0;
  std::uint64_t plans_built = 0;
  std::uint64_t plans_reused = 0;
  std::uint64_t variant_tasks = 0;
  bool stream_parity = false;  ///< plan vs direct bytes, every paper variant
  bool identical = false;      ///< both sweeps bitwise + CSV identical
};

VariantSweepBench run_variant_sweep_phase(const bench::Options& options,
                                          const std::vector<std::string>& variables,
                                          int reps) {
  VariantSweepBench vs;
  ScopedScheduler scoped(options.threads);
  vs.workers = scoped.scheduler().thread_count();
  const climate::EnsembleGenerator ensemble = bench::make_ensemble(options);

  // Warm the memoization tier: with synthesis and stats builds served
  // from cache, the timed legs measure the sweep and nothing else.
  core::EnsembleCache& cache = core::EnsembleCache::global();
  util::CacheConfig on = util::CacheConfig::from_env();
  on.enabled = true;
  cache.configure(on);
  for (const std::string& name : variables) {
    (void)cache.stats(ensemble, ensemble.variable(name));
  }

  core::SuiteConfig member_major_cfg = bench::suite_config(options);
  // The bias regression round-trips every member once per variant and is
  // identical across the legs; keep the timing on the sweep.
  member_major_cfg.run_bias = false;
  member_major_cfg.variant_jobs = 1;
  core::SuiteConfig per_run_cfg = member_major_cfg;
  per_run_cfg.variant_jobs = 0;

  core::SuiteResults member_major, per_run;
  const auto timed = [&](const core::SuiteConfig& cfg, core::SuiteResults& out) {
    double best = 1e300;
    for (int r = 0; r < reps; ++r) {
      Stopwatch sw;
      out = core::run_suite(ensemble, cfg, variables);
      best = std::min(best, sw.seconds());
    }
    return best;
  };
  vs.member_major_seconds = timed(member_major_cfg, member_major);
  vs.per_run_seconds = timed(per_run_cfg, per_run);

  vs.identical =
      identical_results(member_major, per_run, "sweep_member_major", "sweep_per_run") &&
      core::suite_results_csv(member_major) == core::suite_results_csv(per_run);

  // Traced pass under the default config: the sweep's own counters.
  {
    const bool had_trace = trace::enabled();
    trace::reset();
    trace::set_enabled(true);
    const core::SuiteResults traced =
        core::run_suite(ensemble, member_major_cfg, variables);
    if (traced.variables.empty()) vs.identical = false;  // keep it observable
    const auto counters = trace::counters();
    const auto counter = [&](const char* key) {
      const auto it = counters.find(key);
      return it == counters.end() ? std::uint64_t{0} : it->second;
    };
    vs.plans_built = counter("prep.plan_built");
    vs.plans_reused = counter("prep.plan_reused");
    vs.variant_tasks = counter("sweep.variant_tasks");
    trace::reset();
    if (!had_trace) trace::set_enabled(false);
  }

  // Byte parity of the plan-driven streams on a real member field, for
  // every paper variant: the first variant with a prep key builds the
  // plan, its siblings reuse it, as in the sweep.
  vs.stream_parity = true;
  const climate::VariableSpec& spec = ensemble.variable(variables.front());
  const auto stats = cache.stats(ensemble, spec);
  const climate::Field& field = stats->member(0);
  const std::optional<float> fill =
      spec.has_fill ? std::optional<float>(climate::kFillValue) : std::nullopt;
  std::map<std::string, comp::PrepPlanPtr> plans;
  for (const comp::CodecPtr& codec : comp::paper_variants(4, fill)) {
    const std::string key = codec->prep_key();
    if (key.empty()) continue;
    comp::PrepPlanPtr& plan = plans[key];
    if (plan == nullptr) plan = codec->build_prep(field.data, field.shape);
    if (plan == nullptr ||
        codec->encode_with_prep(*plan, field.data, field.shape) !=
            codec->encode(field.data, field.shape)) {
      std::fprintf(stderr, "PLAN PARITY FAILURE: %s plan stream != direct\n",
                   codec->name().c_str());
      vs.stream_parity = false;
    }
  }

  // Leave the cache in its environment-default state.
  cache.configure(util::CacheConfig::from_env());
  return vs;
}

void write_json(std::ostream& out, const std::vector<ConfigResult>& configs,
                const std::vector<PhaseRow>& phases, const CacheBench& cache,
                const FullGridBench& fg, const MultiVarBench& mv,
                const SpillReuseBench& sr, const VariantSweepBench& vs,
                const bench::Options& options,
                std::size_t threads, std::size_t n_vars, int reps,
                bool deterministic, double speedup_vs_serial) {
  // `threads` is the configured worker count; when it exceeds the core
  // count the workers time-slice and any reported "parallel speedup" is
  // bounded by the cores, not the worker count. Record both the effective
  // parallelism and an explicit oversubscription flag so downstream tooling
  // does not misread an oversubscribed run as a scaling regression.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t effective_workers =
      hw == 0 ? threads : std::min<std::size_t>(threads, hw);
  const bool oversubscribed = hw != 0 && threads > hw;
  // --full-grid resets the kernel HWM between its legs, so the current
  // reading alone would under-report the process peak; fold the phase
  // peaks back in.
  std::uint64_t peak_rss =
      std::max<std::uint64_t>(util::peak_rss_bytes(),
                              std::max(fg.streaming_peak_rss, fg.incore_peak_rss));
  peak_rss = std::max(peak_rss, std::max(mv.serial_peak_rss, mv.parallel_peak_rss));
  out << "{\n"
      << "  \"bench\": \"suite\",\n"
      << "  \"quick\": " << (options.quick ? "true" : "false") << ",\n"
      << "  \"threads\": " << threads << ",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"effective_workers\": " << effective_workers << ",\n"
      << "  \"oversubscribed\": " << (oversubscribed ? "true" : "false") << ",\n"
      << "  \"members\": " << options.members << ",\n"
      << "  \"variables\": " << n_vars << ",\n"
      << "  \"peak_rss_bytes\": " << peak_rss << ",\n"
      << "  \"reps\": " << reps << ",\n"
      << "  \"deterministic\": " << (deterministic ? "true" : "false") << ",\n"
      << "  \"speedup_vs_serial\": " << speedup_vs_serial << ",\n"
      << "  \"configs\": [\n";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const ConfigResult& c = configs[i];
    out << "    {\"name\": \"" << c.name << "\", "
        << "\"seconds\": " << c.seconds << ", "
        << "\"tasks_spawned\": " << c.sched.spawned << ", "
        << "\"tasks_stolen\": " << c.sched.stolen << ", "
        << "\"tasks_popped\": " << c.sched.popped << ", "
        << "\"tasks_injected\": " << c.sched.injected << ", "
        << "\"tasks_helped_in_wait\": " << c.sched.helped << ", "
        << "\"steal_ratio\": " << c.sched.steal_ratio() << ", "
        << "\"busy_ns\": " << c.sched.total_busy_ns() << "}"
        << (i + 1 < configs.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"full_grid\": {\n"
      << "    \"enabled\": " << (fg.enabled ? "true" : "false");
  if (fg.enabled) {
    out << ",\n"
        << "    \"variable\": \"" << fg.variable << "\",\n"
        << "    \"members\": " << fg.members << ",\n"
        << "    \"elems_per_member\": " << fg.elems_per_member << ",\n"
        << "    \"chunk_elems\": " << fg.chunk_elems << ",\n"
        << "    \"budget_cap_bytes\": " << fg.budget_cap_bytes << ",\n"
        << "    \"rss_reset_supported\": " << (fg.rss_reset_supported ? "true" : "false")
        << ",\n"
        << "    \"parity\": " << (fg.parity ? "true" : "false") << ",\n"
        << "    \"streaming_seconds\": " << fg.streaming_seconds << ",\n"
        << "    \"streaming_peak_rss_bytes\": " << fg.streaming_peak_rss << ",\n"
        << "    \"stage_seconds\": " << fg.phases.stage_seconds << ",\n"
        << "    \"stats_seconds\": " << fg.phases.stats_seconds << ",\n"
        << "    \"verify_seconds\": " << fg.phases.verify_seconds << ",\n"
        << "    \"bytes_spilled\": " << fg.phases.bytes_spilled << ",\n"
        << "    \"peak_logical_bytes\": " << fg.phases.peak_logical_bytes << ",\n"
        << "    \"incore_seconds\": " << fg.incore_seconds << ",\n"
        << "    \"incore_peak_rss_bytes\": " << fg.incore_peak_rss;
  }
  out << "\n  },\n"
      << "  \"multi_var\": {\n"
      << "    \"enabled\": " << (mv.enabled ? "true" : "false");
  if (mv.enabled) {
    out << ",\n    \"variables\": [";
    for (std::size_t i = 0; i < mv.variables.size(); ++i) {
      out << "\"" << mv.variables[i] << "\""
          << (i + 1 < mv.variables.size() ? ", " : "");
    }
    out << "],\n"
        << "    \"members\": " << mv.members << ",\n"
        << "    \"chunk_elems\": " << mv.chunk_elems << ",\n"
        << "    \"parallel_jobs\": " << mv.parallel_jobs << ",\n"
        << "    \"workers\": " << mv.workers << ",\n"
        << "    \"budget_cap_bytes\": " << mv.budget_cap_bytes << ",\n"
        << "    \"rss_reset_supported\": "
        << (mv.rss_reset_supported ? "true" : "false") << ",\n"
        << "    \"serial_seconds\": " << mv.serial_seconds << ",\n"
        << "    \"parallel_seconds\": " << mv.parallel_seconds << ",\n"
        << "    \"incore_seconds\": " << mv.incore_seconds << ",\n"
        << "    \"speedup_parallel_vs_serial\": " << mv.speedup() << ",\n"
        << "    \"serial_peak_rss_bytes\": " << mv.serial_peak_rss << ",\n"
        << "    \"parallel_peak_rss_bytes\": " << mv.parallel_peak_rss << ",\n"
        << "    \"parallel_peak_logical_bytes\": " << mv.parallel_peak_logical
        << ",\n"
        << "    \"reserve_waits\": " << mv.reserve_waits << ",\n"
        << "    \"leaked_bytes\": " << mv.leaked_bytes << ",\n"
        << "    \"parity\": " << (mv.parity ? "true" : "false");
  }
  out << "\n  },\n"
      << "  \"spill_reuse\": {\n"
      << "    \"enabled\": " << (sr.enabled ? "true" : "false");
  if (sr.enabled) {
    out << ",\n    \"variables\": [";
    for (std::size_t i = 0; i < sr.variables.size(); ++i) {
      out << "\"" << sr.variables[i] << "\""
          << (i + 1 < sr.variables.size() ? ", " : "");
    }
    out << "],\n"
        << "    \"cold_seconds\": " << sr.cold_seconds << ",\n"
        << "    \"warm_seconds\": " << sr.warm_seconds << ",\n"
        << "    \"cold_synthesize_spans\": " << sr.cold_synthesize_spans << ",\n"
        << "    \"warm_synthesize_spans\": " << sr.warm_synthesize_spans << ",\n"
        << "    \"warm_spills_reused\": " << sr.warm_spills_reused << ",\n"
        << "    \"parity\": " << (sr.parity ? "true" : "false");
  }
  out << "\n  },\n"
      << "  \"cache\": {\n"
      << "    \"off_seconds\": " << cache.off_seconds << ",\n"
      << "    \"cold_seconds\": " << cache.cold_seconds << ",\n"
      << "    \"warm_seconds\": " << cache.warm_seconds << ",\n"
      << "    \"warm_speedup_vs_off\": " << cache.warm_speedup() << ",\n"
      << "    \"mem_hits\": " << cache.mem.hits << ",\n"
      << "    \"mem_misses\": " << cache.mem.misses << ",\n"
      << "    \"mem_evictions\": " << cache.mem.evictions << ",\n"
      << "    \"mem_resident_bytes\": " << cache.mem.resident_bytes << ",\n"
      << "    \"hit_rate\": " << cache.hit_rate() << ",\n"
      << "    \"disk_tier\": " << (cache.disk_tier ? "true" : "false") << ",\n"
      << "    \"parity\": " << (cache.parity ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"variant_sweep\": {\n"
      << "    \"workers\": " << vs.workers << ",\n"
      << "    \"member_major_seconds\": " << vs.member_major_seconds << ",\n"
      << "    \"per_run_seconds\": " << vs.per_run_seconds << ",\n"
      << "    \"plans_built\": " << vs.plans_built << ",\n"
      << "    \"plans_reused\": " << vs.plans_reused << ",\n"
      << "    \"variant_tasks\": " << vs.variant_tasks << ",\n"
      << "    \"stream_parity\": " << (vs.stream_parity ? "true" : "false") << ",\n"
      << "    \"parity\": " << (vs.identical ? "true" : "false") << "\n"
      << "  },\n"
      << "  \"phases\": [\n";
  for (std::size_t i = 0; i < phases.size(); ++i) {
    out << "    {\"label\": \"" << phases[i].label << "\", "
        << "\"count\": " << phases[i].count << ", "
        << "\"total_seconds\": " << phases[i].total_seconds << "}"
        << (i + 1 < phases.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options options = bench::Options::parse(argc, argv);
  // SIGINT/SIGTERM drain: finish the current leg and write the outputs
  // atomically instead of leaving a torn BENCH_suite.json behind.
  util::install_signal_drain();
  // The full catalog at 101 members takes minutes; the bench's default is
  // a representative slice, and --quick shrinks it to a CI smoke run.
  // Explicit --members/--vars always win.
  if (options.members == 101) options.members = options.quick ? 7 : 15;
  if (options.var_limit == 0) options.var_limit = options.quick ? 4 : 8;
  const int reps = options.quick ? 1 : 2;

  const std::vector<std::string> variables = bench::select_variables(
      bench::make_ensemble(options), options.var_limit);

  // The scheduler configurations measure end-to-end *recomputation*;
  // with memoization live, every rep after the first would skip exactly
  // the synthesis/stats work those timings exist to cover. The cache gets
  // its own phase below.
  {
    util::CacheConfig off = util::CacheConfig::from_env();
    off.enabled = false;
    core::EnsembleCache::global().configure(off);
  }

  // The out-of-core legs go first so their streaming peak-RSS measurements
  // start from a near-pristine high-water mark even on kernels that cannot
  // reset it. The multi-variable legs (a few MiB of working set each) run
  // before the 3-D spotlight, whose in-core twin leaves hundreds of MiB of
  // allocator retention behind.
  MultiVarBench multi_var;
  SpillReuseBench spill_reuse;
  FullGridBench full_grid;
  if (options.full_grid) {
    multi_var = run_multi_var_phase(options);
    spill_reuse = run_spill_reuse_phase(options);
    full_grid = run_full_grid_phase(options);
  }

  std::vector<ConfigResult> configs;
  configs.push_back(run_config("sched_serial", 1, reps, options, variables));
  configs.push_back(run_config("sched_full", options.threads, reps, options, variables));
  const ConfigResult& serial = configs[0];
  const ConfigResult& full = configs[1];

  const bool deterministic =
      identical_results(serial.results, full.results, serial.name, full.name);

  // Per-phase breakdown: one traced pass under the full scheduler.
  std::vector<PhaseRow> phases;
  std::size_t threads = 0;
  {
    const bool had_trace = trace::enabled();
    trace::reset();
    trace::set_enabled(true);
    ScopedScheduler scoped(options.threads);
    threads = scoped.scheduler().thread_count();
    const climate::EnsembleGenerator ensemble = bench::make_ensemble(options);
    const core::SuiteResults traced =
        core::run_suite(ensemble, bench::suite_config(options), variables);
    if (traced.variables.empty()) return 1;  // and keep `traced` observable
    scoped.scheduler().publish_trace_counters();
    for (const auto& [label, stats] : trace::aggregate_by_label()) {
      phases.push_back({label, stats.count, stats.total_seconds()});
    }
    std::sort(phases.begin(), phases.end(), [](const PhaseRow& a, const PhaseRow& b) {
      return a.total_seconds > b.total_seconds;
    });
    if (!had_trace) trace::set_enabled(false);
  }

  const double speedup_vs_serial = serial.seconds / full.seconds;

  const std::string out_path =
      options.out_path.empty() ? "BENCH_suite.json" : options.out_path;
  std::string csv_path = out_path;
  if (csv_path.size() > 5 && csv_path.rfind(".json") == csv_path.size() - 5) {
    csv_path.resize(csv_path.size() - 5);
  }
  csv_path += ".csv";
  const CacheBench cache_bench = run_cache_phase(options, variables, csv_path);
  const VariantSweepBench variant_sweep =
      run_variant_sweep_phase(options, variables, reps);

  std::printf("%-14s %10s %10s %9s %9s %8s %12s\n", "config", "seconds", "spawned",
              "stolen", "helped", "steal%", "busy (ms)");
  for (const ConfigResult& c : configs) {
    std::printf("%-14s %10.3f %10llu %9llu %9llu %7.1f%% %12.1f\n", c.name.c_str(),
                c.seconds, static_cast<unsigned long long>(c.sched.spawned),
                static_cast<unsigned long long>(c.sched.stolen),
                static_cast<unsigned long long>(c.sched.helped),
                c.sched.steal_ratio() * 100.0,
                static_cast<double>(c.sched.total_busy_ns()) * 1e-6);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("threads=%zu (hw=%u)  members=%zu vars=%zu reps=%d%s\n", threads, hw,
              options.members, variables.size(), reps, options.quick ? " quick" : "");
  if (hw != 0 && threads > hw) {
    std::printf("note: %zu workers oversubscribe %u cores; parallel speedups are "
                "bounded by the core count\n",
                threads, hw);
  }
  std::printf("speedup vs 1 thread: %.2fx\n", speedup_vs_serial);
  std::printf("deterministic across configs: %s\n", deterministic ? "yes" : "NO");
  std::printf("cache phase: off %.3fs  cold %.3fs  warm %.3fs  (warm %.2fx vs off, "
              "hit rate %.0f%%, %llu hits/%llu misses%s)\n",
              cache_bench.off_seconds, cache_bench.cold_seconds,
              cache_bench.warm_seconds, cache_bench.warm_speedup(),
              cache_bench.hit_rate() * 100.0,
              static_cast<unsigned long long>(cache_bench.mem.hits),
              static_cast<unsigned long long>(cache_bench.mem.misses),
              cache_bench.disk_tier ? ", disk tier on" : "");
  std::printf("cache parity (off == cold == warm, bitwise): %s\n",
              cache_bench.parity ? "yes" : "NO");
  std::printf("variant sweep: member-major %.3fs  per-run %.3fs (%zu workers)\n",
              variant_sweep.member_major_seconds, variant_sweep.per_run_seconds,
              variant_sweep.workers);
  std::printf("  plans built %llu, reused %llu; %llu variant tasks\n",
              static_cast<unsigned long long>(variant_sweep.plans_built),
              static_cast<unsigned long long>(variant_sweep.plans_reused),
              static_cast<unsigned long long>(variant_sweep.variant_tasks));
  std::printf("  plan streams == direct streams (bytes): %s   "
              "both sweeps identical (bitwise): %s\n",
              variant_sweep.stream_parity ? "yes" : "NO",
              variant_sweep.identical ? "yes" : "NO");
  if (full_grid.enabled) {
    std::printf("full grid: %s x%zu members (%llu elems each), chunk %zu\n",
                full_grid.variable.c_str(), full_grid.members,
                static_cast<unsigned long long>(full_grid.elems_per_member),
                full_grid.chunk_elems);
    std::printf("  streaming %.3fs (stage %.3f, stats %.3f, verify %.3f)  "
                "peak RSS %.1f MB  logical %.1f MB%s\n",
                full_grid.streaming_seconds, full_grid.phases.stage_seconds,
                full_grid.phases.stats_seconds, full_grid.phases.verify_seconds,
                static_cast<double>(full_grid.streaming_peak_rss) / 1048576.0,
                static_cast<double>(full_grid.phases.peak_logical_bytes) / 1048576.0,
                full_grid.budget_cap_bytes == 0 ? "  (no CESM_MEM_MB cap)" : "");
    if (full_grid.budget_cap_bytes != 0) {
      std::printf("  budget cap %.1f MB (CESM_MEM_MB)\n",
                  static_cast<double>(full_grid.budget_cap_bytes) / 1048576.0);
    }
    std::printf("  in-core   %.3fs  peak RSS %.1f MB\n", full_grid.incore_seconds,
                static_cast<double>(full_grid.incore_peak_rss) / 1048576.0);
    std::printf("  streaming == in-core (bitwise): %s\n",
                full_grid.parity ? "yes" : "NO");
  }
  if (multi_var.enabled) {
    std::printf("multi-var: %zu surface variables x%zu members, %zu jobs vs serial "
                "(%zu workers)\n",
                multi_var.variables.size(), multi_var.members,
                multi_var.parallel_jobs, multi_var.workers);
    std::printf("  serial   %.3fs  peak RSS %.1f MB\n", multi_var.serial_seconds,
                static_cast<double>(multi_var.serial_peak_rss) / 1048576.0);
    std::printf("  parallel %.3fs  peak RSS %.1f MB  logical %.1f MB  "
                "(%.2fx, %llu waits)\n",
                multi_var.parallel_seconds,
                static_cast<double>(multi_var.parallel_peak_rss) / 1048576.0,
                static_cast<double>(multi_var.parallel_peak_logical) / 1048576.0,
                multi_var.speedup(),
                static_cast<unsigned long long>(multi_var.reserve_waits));
    std::printf("  in-core  %.3fs\n", multi_var.incore_seconds);
    if (multi_var.budget_cap_bytes != 0) {
      std::printf("  budget cap %.1f MB (CESM_MEM_MB), balance after run %llu B\n",
                  static_cast<double>(multi_var.budget_cap_bytes) / 1048576.0,
                  static_cast<unsigned long long>(multi_var.leaked_bytes));
    }
    std::printf("  serial == parallel == in-core (bitwise): %s\n",
                multi_var.parity ? "yes" : "NO");
  }
  if (spill_reuse.enabled) {
    std::printf("spill reuse: cold %.3fs (%llu synthesize spans)  warm %.3fs "
                "(%llu spans, %llu spills reused)\n",
                spill_reuse.cold_seconds,
                static_cast<unsigned long long>(spill_reuse.cold_synthesize_spans),
                spill_reuse.warm_seconds,
                static_cast<unsigned long long>(spill_reuse.warm_synthesize_spans),
                static_cast<unsigned long long>(spill_reuse.warm_spills_reused));
    std::printf("  cold == warm (bitwise): %s\n", spill_reuse.parity ? "yes" : "NO");
  }
  if (!phases.empty()) {
    std::printf("top phases (traced pass):\n");
    const std::size_t shown = std::min<std::size_t>(phases.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
      std::printf("  %-24s %8.3f s  x%llu\n", phases[i].label.c_str(),
                  phases[i].total_seconds,
                  static_cast<unsigned long long>(phases[i].count));
    }
  }

  // Buffer + atomic write: a bench killed between legs must not leave a
  // half-written JSON for the CI gate to parse.
  std::ostringstream out;
  write_json(out, configs, phases, cache_bench, full_grid, multi_var, spill_reuse,
             variant_sweep, options, threads, variables.size(), reps, deterministic,
             speedup_vs_serial);
  core::write_text_file(out_path, out.str());
  std::printf("wrote %s and %s\n", out_path.c_str(), csv_path.c_str());

  bench::write_profile(options);
  const bool full_grid_ok = !full_grid.enabled || full_grid.parity;
  // Multi-variable concurrency must be invisible in the results, the shared
  // budget must balance back to zero, and a warm spill store must satisfy
  // every staging (no synthesis) while the cold run proves the counter works.
  const bool multi_var_ok =
      !multi_var.enabled || (multi_var.parity && multi_var.leaked_bytes == 0);
  const bool spill_reuse_ok =
      !spill_reuse.enabled ||
      (spill_reuse.parity && spill_reuse.warm_synthesize_spans == 0 &&
       spill_reuse.cold_synthesize_spans > 0 && spill_reuse.warm_spills_reused > 0);
  // The variant sweep's contract: plan-driven streams byte-equal to
  // direct encodes, bit-identical results at both scheduling shapes, and
  // plans actually shared (nonzero reuse across sibling variants).
  const bool variant_sweep_ok =
      variant_sweep.identical && variant_sweep.stream_parity &&
      variant_sweep.plans_reused > 0 && variant_sweep.variant_tasks > 0;
  return deterministic && cache_bench.parity && full_grid_ok && multi_var_ok &&
                 spill_reuse_ok && variant_sweep_ok
             ? 0
             : 1;
}
