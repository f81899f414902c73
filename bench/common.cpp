#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>

#include "compress/variants.h"
#include "core/ensemble_cache.h"
#include "core/profile_report.h"
#include "util/error.h"
#include "util/scheduler.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace cesm::bench {

namespace {

[[noreturn]] void usage_and_exit(const char* prog) {
  std::printf(
      "usage: %s [--scale=reduced|paper] [--members=N] [--vars=N] [--no-bias] [--seed=N]\n"
      "          [--threads=N] [--quick] [--out=PATH] [--profile=out.json]\n"
      "  --scale=reduced  3,456 columns x 8 levels (default for ensemble benches)\n"
      "  --scale=paper    48,672 columns x 30 levels (the paper's ne30-scale grid)\n"
      "  --members=N      perturbation ensemble size (paper: 101)\n"
      "  --vars=N         limit the variable census (0 = all 170)\n"
      "  --no-bias        skip the all-member bias regression (fast preview)\n"
      "  --seed=N         seed for the random test-member choice\n"
      "  --threads=N      scheduler worker count (default: CESM_THREADS env,\n"
      "                   then hardware concurrency; clamped to the hardware)\n"
      "  --quick          CI smoke mode (shrinks the bench's workload)\n"
      "  --out=PATH       override the bench's JSON output path\n"
      "  --profile=PATH   enable per-stage tracing; write the JSON span tree\n"
      "                   to PATH and a readable tree to stderr\n",
      prog);
  std::exit(2);
}

}  // namespace

Options Options::parse(int argc, char** argv, bool default_paper_scale) {
  Options o;
  o.paper_scale = default_paper_scale;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage_and_exit(argv[0]);
    if (arg == "--scale=paper") {
      o.paper_scale = true;
    } else if (arg == "--scale=reduced") {
      o.paper_scale = false;
    } else if (arg.rfind("--members=", 0) == 0) {
      o.members = static_cast<std::size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
      if (o.members < 3) usage_and_exit(argv[0]);
    } else if (arg.rfind("--vars=", 0) == 0) {
      o.var_limit = static_cast<std::size_t>(std::strtoull(arg.c_str() + 7, nullptr, 10));
    } else if (arg == "--no-bias") {
      o.run_bias = false;
    } else if (arg.rfind("--seed=", 0) == 0) {
      o.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--threads=", 0) == 0) {
      o.threads = static_cast<std::size_t>(std::strtoull(arg.c_str() + 10, nullptr, 10));
      if (o.threads == 0) usage_and_exit(argv[0]);
    } else if (arg == "--quick") {
      o.quick = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      o.out_path = arg.substr(6);
      if (o.out_path.empty()) usage_and_exit(argv[0]);
    } else if (arg.rfind("--profile=", 0) == 0) {
      o.profile_path = arg.substr(10);
      if (o.profile_path.empty()) usage_and_exit(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage_and_exit(argv[0]);
    }
  }
  o.grid = o.paper_scale ? climate::GridSpec::paper() : climate::GridSpec::reduced();
  if (o.threads != 0) {
    // Oversubscribing the machine only adds context-switch noise to the
    // timings, so an over-large request is clamped (loudly): the recorded
    // numbers should describe workers that actually ran in parallel.
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    if (o.threads > hw) {
      std::fprintf(stderr,
                   "warning: --threads=%zu exceeds the %zu hardware thread%s "
                   "available; clamping to %zu\n",
                   o.threads, hw, hw == 1 ? "" : "s", hw);
      o.threads = hw;
    }
    // Before the lazily-built global scheduler exists; CESM_THREADS (and
    // hardware concurrency) yield to an explicit flag.
    Scheduler::set_default_threads(o.threads);
  }
  if (!o.profile_path.empty()) {
    // Fail fast on an unwritable path: a bench run can take minutes and
    // the profile is the whole point of passing the flag.
    try {
      core::write_profile_json(o.profile_path);
    } catch (const IoError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
    trace::set_enabled(true);
  }
  return o;
}

void write_profile(const Options& options) {
  if (options.profile_path.empty()) return;
  // The scheduler's work-distribution stats are per instance, not rows
  // of the trace counter table; render them beside it so the profile
  // shows where the parallelism landed.
  std::map<std::string, std::uint64_t> counters = trace::counters();
  const Scheduler& sched = Scheduler::global();
  const SchedulerStats s = sched.stats();
  counters["sched.workers"] = sched.thread_count();
  counters["sched.tasks_spawned"] = s.spawned;
  counters["sched.tasks_popped"] = s.popped;
  counters["sched.tasks_stolen"] = s.stolen;
  counters["sched.tasks_injected"] = s.injected;
  counters["sched.tasks_helped_in_wait"] = s.helped;
  counters["sched.chunks_inline"] = s.inline_chunks;
  counters["sched.steal_ratio_pct"] = static_cast<std::uint64_t>(s.steal_ratio() * 100.0 + 0.5);
  counters["sched.busy_ns_total"] = s.total_busy_ns();
  for (std::size_t i = 0; i < s.worker_busy_ns.size(); ++i) {
    counters["sched.busy_ns_worker" + std::to_string(i)] = s.worker_busy_ns[i];
  }
  std::fputs(core::profile_text(trace::collect_tree(), counters).c_str(), stderr);
  try {
    core::write_profile_json(options.profile_path, counters);
    std::fprintf(stderr, "profile written to %s\n", options.profile_path.c_str());
  } catch (const IoError& e) {
    // The path was probed at parse time; losing the file mid-run is
    // worth a message, not an abort that hides the bench's results.
    std::fprintf(stderr, "%s\n", e.what());
  }
}

climate::EnsembleGenerator make_ensemble(const Options& options) {
  climate::EnsembleSpec spec;
  spec.grid = options.grid;
  spec.members = options.members;
  return climate::EnsembleGenerator(spec);
}

std::vector<std::string> select_variables(const climate::EnsembleGenerator& ens,
                                          std::size_t limit) {
  std::vector<std::string> names;
  for (const climate::VariableSpec& v : ens.catalog()) names.push_back(v.name);
  if (limit == 0 || limit >= names.size()) return names;

  std::vector<std::string> chosen(names.begin(),
                                  names.begin() + static_cast<std::ptrdiff_t>(limit));
  for (const char* spotlight : climate::kSpotlightVariables) {
    if (std::find(chosen.begin(), chosen.end(), spotlight) == chosen.end()) {
      chosen.push_back(spotlight);
    }
  }
  return chosen;
}

core::SuiteConfig suite_config(const Options& options) {
  core::SuiteConfig cfg;
  cfg.run_bias = options.run_bias;
  cfg.member_seed = options.seed;
  return cfg;
}

std::string paper_cr(double cr) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", cr);
  std::string s(buf);
  if (s.rfind("0.", 0) == 0) s.erase(0, 1);
  return s;
}

std::vector<VariantOutcome> evaluate_variants(const climate::EnsembleGenerator& eval_ens,
                                              const climate::EnsembleGenerator& tuning_ens,
                                              const std::string& variable,
                                              std::uint32_t member,
                                              int timing_repeats) {
  const climate::VariableSpec& spec = eval_ens.variable(variable);
  const std::optional<float> fill =
      spec.has_fill ? std::optional<float>(climate::kFillValue) : std::nullopt;

  // RMSZ-guided GRIB2 decimal scale on the (cheap) tuning ensemble;
  // memoized, so every variant evaluation shares one tuning synthesis.
  const auto tuning_stats_ptr = core::EnsembleCache::global().stats(
      tuning_ens, tuning_ens.variable(variable));
  const core::EnsembleStats& tuning_stats = *tuning_stats_ptr;
  const std::vector<std::size_t> probes =
      core::PvtVerifier::pick_members(3, tuning_stats.member_count(), spec.stream);
  const core::GribTuning tuning =
      core::rmsz_guided_decimal_scale(tuning_stats, fill, probes);

  const climate::Field field = eval_ens.field(spec, member);
  std::vector<VariantOutcome> outcomes;
  for (const comp::CodecPtr& codec :
       comp::paper_variants(tuning.decimal_scale, fill)) {
    VariantOutcome out;
    out.variant = codec->name();
    const comp::RoundTrip rt = comp::round_trip(*codec, field.data, field.shape);
    out.cr = rt.cr;
    out.metrics = core::compare_fields(field, rt.reconstructed);

    if (timing_repeats > 0) {
      std::vector<double> enc_times, dec_times;
      for (int r = 0; r < timing_repeats; ++r) {
        Stopwatch sw;
        const Bytes stream = codec->encode(field.data, field.shape);
        enc_times.push_back(sw.seconds());
        sw.restart();
        const std::vector<float> recon = codec->decode(stream);
        dec_times.push_back(sw.seconds());
        // Fold the result into the timing so the calls are not elided.
        if (recon.empty() || stream.empty()) std::abort();
      }
      std::sort(enc_times.begin(), enc_times.end());
      std::sort(dec_times.begin(), dec_times.end());
      out.compress_seconds = enc_times[enc_times.size() / 2];
      out.reconstruct_seconds = dec_times[dec_times.size() / 2];
    }
    outcomes.push_back(std::move(out));
  }
  return outcomes;
}

}  // namespace cesm::bench
