// cesm_bench: the timed end-to-end benchmark (README.md).
//
//   cesm_bench --workload=NAME [--seed=N] [--seconds=S] [--smoke] [--out=PATH]
//              [--zipf=S] [--pool=N]
//
// Runs one workload in one process on 4 scheduler workers (clamped to the
// hardware): repeated setups (the median is setup_s), one warm-up pass,
// then timed passes (batch) or a timed closed-loop window (serve) for
// --seconds. Prints every end-to-end metric as "name value unit", the
// always-on layer counters, and the same values as one JSON object on the
// last line. Exits 1 when any output was wrong: a failed variable, a
// codec-error verdict, a pass whose CSV bytes differ from the warm-up pass,
// or a serve response that is not byte-equal to a local run_suite result.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "core/ensemble_cache.h"
#include "core/export.h"
#include "util/memory.h"
#include "util/scheduler.h"
#include "workload.h"

namespace {

using namespace cesm;
using namespace cesm::e2e;

constexpr std::size_t kWorkers = 4;
constexpr double kMiB = 1024.0 * 1024.0;

struct Outcome {
  MetricMap end_to_end;
  MetricMap layers;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::string csv_fnv;
  std::size_t passes = 0;
  std::vector<double> setup_s;
  std::vector<double> pass_wall_s;
  std::vector<double> pass_cpu_s;
};

/// Scheduler counters between two snapshots.
struct SchedDelta {
  double busy_ns = 0.0;
  double executed = 0.0;
  double stolen = 0.0;
};

SchedDelta sched_delta(const SchedulerStats& a, const SchedulerStats& b) {
  SchedDelta d;
  for (std::size_t i = 0; i < b.worker_busy_ns.size(); ++i) {
    const std::uint64_t before = i < a.worker_busy_ns.size() ? a.worker_busy_ns[i] : 0;
    d.busy_ns += static_cast<double>(b.worker_busy_ns[i] - before);
  }
  d.executed = static_cast<double>((b.popped + b.stolen + b.injected) -
                                   (a.popped + a.stolen + a.injected));
  d.stolen = static_cast<double>(b.stolen - a.stolen);
  return d;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void set_common_end_to_end(Outcome& out, double verdicts_per_s, double verdicts_per_cpu_s,
                           double req_per_s, const std::vector<double>& latency_ms) {
  out.end_to_end["setup_s"] = {median(out.setup_s), "s"};
  out.end_to_end["verdicts_per_s"] = {verdicts_per_s, "1/s"};
  out.end_to_end["verdicts_per_cpu_s"] = {verdicts_per_cpu_s, "1/CPU-s"};
  out.end_to_end["peak_rss_mb"] = {static_cast<double>(util::peak_rss_bytes()) / kMiB,
                                   "MiB"};
  out.end_to_end["req_per_s"] = {req_per_s, "1/s"};
  out.end_to_end["req_p50_ms"] = {median(latency_ms), "ms"};
  out.end_to_end["req_p90_ms"] = {quantile(latency_ms, 0.9), "ms"};
}

Outcome run_batch(const Workload& w, const Options& opt) {
  Outcome out;
  std::unique_ptr<climate::EnsembleGenerator> gen;
  for (std::size_t r = 0; r < w.setup_reps; ++r) {
    gen.reset();
    const Clock::time_point t0 = Clock::now();
    configure_cache(w);
    gen = std::make_unique<climate::EnsembleGenerator>(w.ensemble);
    if (w.cache_on) warm_cache(w, *gen);
    if (w.kind == Kind::kStream) std::filesystem::create_directories(w.ooc.spill_dir);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  const auto run_once = [&](util::MemoryBudget& budget) {
    if (w.kind == Kind::kStream) {
      core::OocConfig config = w.ooc;
      config.shared_budget = &budget;
      return core::run_suite_streaming(*gen, config, w.variables);
    }
    return core::run_suite(*gen, w.suite, w.variables);
  };

  std::string reference;
  {
    util::MemoryBudget budget(w.ooc.memory_budget_bytes);
    reference = core::suite_results_csv(run_once(budget));
  }
  out.csv_fnv = fnv_hex(reference);

  const std::size_t vars = w.variables.size();
  std::vector<double> busy_frac;
  std::vector<double> tasks;
  double stolen = 0.0;
  double executed = 0.0;
  double budget_peak = 0.0;
  double reserve_waits = 0.0;
  double cache_hits = 0.0;
  double cache_lookups = 0.0;
  const Clock::time_point window = Clock::now();
  while (out.passes < w.min_passes ||
         seconds_between(window, Clock::now()) < opt.seconds) {
    util::MemoryBudget budget(w.ooc.memory_budget_bytes);
    const util::CacheStats cache0 = core::EnsembleCache::global().memory_stats();
    const SchedulerStats sched0 = Scheduler::global().stats();
    const double cpu0 = cpu_seconds();
    const Clock::time_point t0 = Clock::now();
    const core::SuiteResults results = run_once(budget);
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = cpu_seconds() - cpu0;
    const SchedDelta sd = sched_delta(sched0, Scheduler::global().stats());
    const util::CacheStats cache1 = core::EnsembleCache::global().memory_stats();

    const bool same_bytes = core::suite_results_csv(results) == reference;
    out.failed += same_bytes ? failed_variables(results) : vars;
    out.attempted += vars;
    ++out.passes;
    out.pass_wall_s.push_back(wall);
    out.pass_cpu_s.push_back(cpu);
    busy_frac.push_back(ratio(sd.busy_ns * 1e-9, wall * static_cast<double>(kWorkers)));
    tasks.push_back(sd.executed);
    stolen += sd.stolen;
    executed += sd.executed;
    budget_peak = std::max(budget_peak, static_cast<double>(budget.peak_logical_bytes()));
    reserve_waits += static_cast<double>(budget.reserve_waits());
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    cache_hits += hits;
    cache_lookups += hits + static_cast<double>(cache1.misses - cache0.misses);
  }

  double window_wall = 0.0;
  for (double s : out.pass_wall_s) window_wall += s;
  std::vector<double> latency_ms;
  for (double s : out.pass_wall_s) latency_ms.push_back(s * 1e3);
  const double verdicts = static_cast<double>(vars * kVariantsPerVariable);
  set_common_end_to_end(out, verdicts / median(out.pass_wall_s),
                        verdicts / median(out.pass_cpu_s),
                        static_cast<double>(out.passes) / window_wall, latency_ms);

  out.layers["util.sched_busy_frac"] = {median(busy_frac), "ratio"};
  out.layers["util.sched_steal_ratio"] = {ratio(stolen, executed), "ratio"};
  out.layers["util.sched_tasks"] = {median(tasks), "count"};
  out.layers["util.budget_peak_logical_mb"] = {budget_peak / kMiB, "MiB"};
  out.layers["util.budget_reserve_waits"] = {reserve_waits, "count"};
  out.layers["core.cache_hit_ratio"] = {ratio(cache_hits, cache_lookups), "ratio"};
  out.layers["serve.coalesced_ratio"] = {0.0, "ratio"};
  out.layers["serve.flights"] = {0.0, "count"};

  if (w.kind == Kind::kStream) {
    // Independent check of the streamed bytes: the in-core leg with the
    // same chunk partition must produce the identical CSV. Runs after the
    // window, so peak_rss_mb above does not include it.
    core::SuiteConfig twin = w.suite;
    twin.chunk_elems = w.ooc.chunk_elems;
    const bool same = core::suite_results_csv(core::run_suite(*gen, twin, w.variables)) ==
                      reference;
    out.attempted += vars;
    out.failed += same ? 0 : vars;
  }
  return out;
}

struct ClientLog {
  std::vector<double> latency_ms;
  std::vector<std::pair<Request, Bytes>> responses;
  std::size_t issued = 0;
  std::size_t errors = 0;
  std::size_t verdicts = 0;
};

Outcome run_serve(const Workload& w, const Options& opt) {
  Outcome out;
  std::unique_ptr<climate::EnsembleGenerator> gen;
  std::unique_ptr<ServeRig> rig;
  for (std::size_t r = 0; r < w.setup_reps; ++r) {
    rig.reset();
    gen.reset();
    const Clock::time_point t0 = Clock::now();
    configure_cache(w);
    gen = std::make_unique<climate::EnsembleGenerator>(w.ensemble);
    rig = std::make_unique<ServeRig>(kServeClients);
    warm_keys(w, *rig);
    out.setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // The parity reference: every key computed in-process (cache is warm).
  const core::SuiteResults local = core::run_suite(*gen, w.suite, w.variables);
  out.csv_fnv = fnv_hex(core::suite_results_csv(local));
  out.failed += failed_variables(local);

  std::vector<ClientLog> logs(kServeClients);
  const std::map<std::string, std::uint64_t> counters0 = rig->server->counters();
  const util::CacheStats cache0 = core::EnsembleCache::global().memory_stats();
  const SchedulerStats sched0 = Scheduler::global().stats();
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(opt.seconds));
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kServeClients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& log = logs[c];
        RequestStream stream(w, opt.seed, c);
        while (Clock::now() < deadline) {
          Request request = stream.next();
          const serve::VerifyRequest wire = to_verify_request(w, request);
          ++log.issued;
          const Clock::time_point sent = Clock::now();
          try {
            Bytes bytes = rig->clients[c].verify_raw(wire);
            log.latency_ms.push_back(seconds_between(sent, Clock::now()) * 1e3);
            log.verdicts += request.variants.size();
            log.responses.emplace_back(std::move(request), std::move(bytes));
          } catch (const serve::RemoteError&) {
            ++log.errors;  // queue-full rejections and processing failures
          } catch (const std::exception&) {
            ++log.errors;  // transport: this connection is gone
            break;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double window = seconds_between(t0, Clock::now());
  const double cpu = cpu_seconds() - cpu0;
  const SchedDelta sd = sched_delta(sched0, Scheduler::global().stats());
  const util::CacheStats cache1 = core::EnsembleCache::global().memory_stats();
  std::map<std::string, std::uint64_t> counters1 = rig->server->counters();

  std::vector<double> latency_ms;
  std::size_t responses = 0;
  std::size_t verdicts = 0;
  for (const ClientLog& log : logs) {
    latency_ms.insert(latency_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    out.attempted += log.issued;
    out.failed += log.errors;
    responses += log.responses.size();
    verdicts += log.verdicts;
    for (const auto& [request, bytes] : log.responses) {
      const Bytes expected = serve::serialize_variable_result(
          serve::filter_result(local.variables[request.key], request.variants));
      out.failed += bytes == expected ? 0 : 1;
    }
  }
  out.passes = responses;
  set_common_end_to_end(out, static_cast<double>(verdicts) / window,
                        ratio(static_cast<double>(verdicts), cpu),
                        static_cast<double>(responses) / window, latency_ms);

  const auto delta = [&](const char* name) {
    return static_cast<double>(counters1[name] - counters0.at(name));
  };
  out.layers["util.sched_busy_frac"] = {
      ratio(sd.busy_ns * 1e-9, window * static_cast<double>(kWorkers)), "ratio"};
  out.layers["util.sched_steal_ratio"] = {ratio(sd.stolen, sd.executed), "ratio"};
  out.layers["util.sched_tasks"] = {sd.executed, "count"};
  out.layers["util.budget_peak_logical_mb"] = {0.0, "MiB"};
  out.layers["util.budget_reserve_waits"] = {0.0, "count"};
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  out.layers["core.cache_hit_ratio"] = {
      ratio(hits, hits + static_cast<double>(cache1.misses - cache0.misses)), "ratio"};
  out.layers["serve.coalesced_ratio"] = {
      ratio(delta("serve.coalesced_joins"), delta("serve.requests")), "ratio"};
  out.layers["serve.flights"] = {delta("serve.flights"), "count"};
  return out;
}

std::string to_json(const Options& opt, const EnvInfo& env, const Workload& w,
                    const Outcome& out) {
  Json j;
  j.begin_object();
  j.key("tool").str("cesm_bench");
  j.key("workload").str(w.name);
  j.key("seed").integer(opt.seed);
  j.key("smoke").boolean(opt.smoke);
  j.key("seconds").num(opt.seconds);
  if (w.kind == Kind::kServe) {
    j.key("zipf_exponent").num(w.zipf_exponent);
    j.key("pool").integer(w.variables.size());
  }
  j.key("env").begin_object();
  j.key("hardware_concurrency").integer(env.hardware_concurrency);
  j.key("workers").integer(env.workers);
  j.key("simd").str(env.simd);
  j.key("build_type").str(env.build_type);
  j.end_object();
  j.key("correct").boolean(out.failed == 0);
  j.key("attempted").integer(out.attempted);
  j.key("failed").integer(out.failed);
  j.key("failed_frac").num(ratio(static_cast<double>(out.failed),
                                 static_cast<double>(out.attempted)));
  j.key("csv_fnv").str(out.csv_fnv);
  j.key("passes").integer(out.passes);
  j.key("end_to_end").metrics(out.end_to_end);
  j.key("layers").metrics(out.layers);
  j.key("samples").begin_object();
  j.key("setup_s").numbers(out.setup_s);
  j.key("pass_wall_s").numbers(out.pass_wall_s);
  j.key("pass_cpu_s").numbers(out.pass_cpu_s);
  j.end_object();
  j.end_object();
  return j.text();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv, "cesm_bench");
  const EnvInfo env = pin_environment(kWorkers);
  const Workload w = make_workload(opt);
  print_header("cesm_bench", opt, env, w);
  try {
    const Outcome out = w.kind == Kind::kServe ? run_serve(w, opt) : run_batch(w, opt);
    print_metrics(out.end_to_end);
    print_metrics(out.layers);
    std::printf("# csv_fnv=%s passes=%zu attempted=%zu failed=%zu\n", out.csv_fnv.c_str(),
                out.passes, out.attempted, out.failed);
    const std::string json = to_json(opt, env, w, out);
    if (!opt.out_path.empty()) write_file(opt.out_path, json + "\n");
    std::printf("%s\n", json.c_str());
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cesm_bench: %s\n", e.what());
    return 3;
  }
}
