// cesm_trace: the per-layer ledger of one workload (README.md).
//
//   cesm_trace --workload=NAME --expect-csv-fnv=HEX [--seed=N] [--smoke]
//              [--out=PATH] [--spans=PATH]
//
// Runs at 1 scheduler worker, so parallel loops run inline and every span
// nests on the calling thread. The ledger is built from the library's own
// trace spans and counters: each unit of work (a variable, or a serve
// request) runs through run_suite or run_suite_streaming with tracing on,
// and the self time of every span in its tree is booked to a layer.
//
//   * batch workloads: one run_suite / run_suite_streaming call per
//     variable. The CSV of the results must hash to --expect-csv-fnv, the
//     csv_fnv cesm_bench printed for the same workload and seed.
//   * serve_zipf: the key pool's CSV is checked the same way. Then the
//     first requests of client 0 are replayed serially over TCP, and each
//     is computed again through run_suite; the filtered result must
//     serialize to the server's exact response. Latency minus the
//     timers-off compute is the wire time.
//
// Any mismatch exits 3 with no ledger. The work runs twice, timers off then
// on; the difference is trace.overhead_frac. Layer self times plus
// trace.unattributed_s add up to trace.wall_s. One span tree per unit of
// work is written as JSON at exit.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>

#include "core/export.h"
#include "core/profile_report.h"
#include "util/trace.h"
#include "workload.h"

namespace {

using namespace cesm;
using namespace cesm::e2e;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr std::size_t kServeReplay = 200;

/// Thrown when the traced run's output differs from the timed run's.
struct OutputMismatch : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Ledger key of a codec family, from a variant name ("ISA-0.5"): each
/// family's variants share a name stem.
std::string family_key(const std::string& name) {
  for (const auto& [stem, key] : {std::pair{"fpzip", "fpzip"}, std::pair{"APAX", "apax"},
                                  std::pair{"ISA", "isabela"}, std::pair{"GRIB2", "grib2"},
                                  std::pair{"NetCDF", "netcdf4"}}) {
    if (name.rfind(stem, 0) == 0) return key;
  }
  return "other";
}

/// Ledger layer of a library span label. The run-level spans book their
/// self time as trace.unattributed; a label this map does not know keeps
/// its time under "other.<label>".
std::string layer_of(const std::string& label) {
  if (const std::size_t colon = label.find(':'); colon != std::string::npos) {
    // Variant codec spans: "<encode|decode|prep>:<variant name>".
    return "compress." + family_key(label.substr(colon + 1)) + "." + label.substr(0, colon);
  }
  static const std::map<std::string, std::string> kLayers = {
      {"suite.run", "trace.unattributed"},
      {"ooc.run", "trace.unattributed"},
      {"suite.variable", "core.variable"},
      {"ooc.variable", "core.variable"},
      {"ensemble.synthesize", "climate.synth"},
      {"stats.build", "core.stats_build"},
      {"grib.tune", "core.grib_tune"},
      {"pvt.verify", "core.pvt"},
      {"pvt.bias_sweep", "core.pvt"},
      {"ooc.verify_variant", "core.pvt"},
      {"ooc.stage", "core.ooc_stage"},
      {"ooc.stats", "core.ooc_stats"},
      {"chunked.encode", "compress.chunked"},
      {"chunked.decode", "compress.chunked"},
  };
  const auto it = kLayers.find(label);
  return it != kLayers.end() ? it->second : "other." + label;
}

/// Book the self time (total minus children) of `node` and its subtree.
void book(const trace::ReportNode& node, std::map<std::string, double>& self) {
  double children = 0.0;
  for (const trace::ReportNode& child : node.children) {
    children += child.stats.total_seconds();
    book(child, self);
  }
  self[layer_of(node.label)] += node.stats.total_seconds() - children;
}

/// What one traced workload produced.
struct Trace {
  std::map<std::string, double> self;  ///< ledger: layer -> self seconds
  std::map<std::string, std::uint64_t> counters;
  Json spans;                ///< one span tree per unit of work
  double wall_s = 0.0;       ///< the ledger's total: timers-on pass (+ wire)
  double on_s = 0.0;         ///< the work with timers on
  double off_s = 0.0;        ///< the same work with timers off
  std::vector<double> job_ms;   ///< per unit of work, timers off
  std::vector<double> wire_ms;  ///< serve: latency minus compute
  std::size_t attempted = 0;
  std::string csv;
};

core::VariableResult compute(const Workload& w, const climate::EnsembleGenerator& gen,
                             const std::string& variable) {
  core::SuiteResults r = w.kind == Kind::kStream
                             ? core::run_suite_streaming(gen, w.ooc, {variable})
                             : core::run_suite(gen, w.suite, {variable});
  return std::move(r.variables.front());
}

/// The results of both passes over the same units of work.
struct Passes {
  std::vector<core::VariableResult> off;
  std::vector<core::VariableResult> on;
};

/// Runs each variable of `jobs` once with timers off, then once with
/// tracing on, booking each unit's span tree into the ledger.
Passes run_passes(const Workload& w, const climate::EnsembleGenerator& gen,
                  const std::vector<std::string>& jobs, Trace& t) {
  Passes p;
  for (const std::string& name : jobs) {
    const Clock::time_point t0 = Clock::now();
    p.off.push_back(compute(w, gen, name));
    const double s = seconds_between(t0, Clock::now());
    t.job_ms.push_back(s * 1e3);
    t.off_s += s;
  }

  t.spans.begin_array();
  trace::set_enabled(true);
  for (const std::string& name : jobs) {
    trace::reset();
    const Clock::time_point t0 = Clock::now();
    p.on.push_back(compute(w, gen, name));
    const double wall = seconds_between(t0, Clock::now());
    t.on_s += wall;

    const trace::ReportNode tree = trace::collect_tree();
    double top = 0.0;
    for (const trace::ReportNode& child : tree.children) {
      top += child.stats.total_seconds();
      book(child, t.self);
    }
    t.self["trace.unattributed"] += wall - top;
    const std::map<std::string, std::uint64_t> counters = trace::counters();
    for (const auto& [counter, value] : counters) t.counters[counter] += value;
    t.spans.begin_object().key("variable").str(name).key("wall_s").num(wall);
    t.spans.key("profile").raw(core::profile_json(tree, trace::aggregate_by_label(), counters));
    t.spans.end_object();
  }
  trace::set_enabled(false);
  trace::reset();
  t.spans.end_array();
  t.wall_s = t.on_s;
  t.attempted = jobs.size();
  return p;
}

std::string results_csv(std::vector<core::VariableResult> variables) {
  core::SuiteResults results;
  results.variables = std::move(variables);
  core::derive_variant_names(results);
  return core::suite_results_csv(results);
}

void check_csv(const Options& opt, const std::string& csv, const char* what) {
  if (const std::string fnv = fnv_hex(csv); fnv != opt.expect_csv_fnv) {
    throw OutputMismatch(std::string(what) + " CSV digest " + fnv +
                         " != cesm_bench's " + opt.expect_csv_fnv);
  }
}

void trace_batch(const Workload& w, const Options& opt, Trace& t) {
  configure_cache(w);
  const climate::EnsembleGenerator gen(w.ensemble);
  if (w.cache_on) warm_cache(w, gen);
  if (w.kind == Kind::kStream) std::filesystem::create_directories(w.ooc.spill_dir);
  Passes p = run_passes(w, gen, w.variables, t);
  check_csv(opt, results_csv(std::move(p.off)), "timers-off");
  t.csv = results_csv(std::move(p.on));
  check_csv(opt, t.csv, "traced");
}

void trace_serve(const Workload& w, const Options& opt, Trace& t) {
  configure_cache(w);
  const climate::EnsembleGenerator gen(w.ensemble);
  ServeRig rig(1);
  warm_keys(w, rig);
  t.csv = core::suite_results_csv(core::run_suite(gen, w.suite, w.variables));
  check_csv(opt, t.csv, "key pool");

  RequestStream stream(w, opt.seed, 0);
  const std::size_t n = opt.smoke ? 20 : kServeReplay;
  std::vector<Request> requests;
  std::vector<Bytes> responses;
  std::vector<double> latency_ms;
  std::vector<std::string> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    requests.push_back(stream.next());
    jobs.push_back(w.variables[requests.back().key]);
    const Clock::time_point sent = Clock::now();
    responses.push_back(rig.clients[0].verify_raw(to_verify_request(w, requests.back())));
    latency_ms.push_back(seconds_between(sent, Clock::now()) * 1e3);
  }

  const Passes p = run_passes(w, gen, jobs, t);
  for (std::size_t i = 0; i < n; ++i) {
    for (const core::VariableResult* r : {&p.off[i], &p.on[i]}) {
      if (serve::serialize_variable_result(serve::filter_result(*r, requests[i].variants)) !=
          responses[i]) {
        throw OutputMismatch("request " + std::to_string(i) + " (" + r->variable +
                             "): run_suite result differs from the server's response");
      }
    }
    t.wire_ms.push_back(latency_ms[i] - t.job_ms[i]);
  }
  double wire = 0.0;
  for (double ms : t.wire_ms) wire += ms * 1e-3;
  t.self["serve.wire"] += wire;
  t.wall_s = t.on_s + wire;
}

MetricMap layer_metrics(const Trace& t) {
  std::map<std::string, double> self = t.self;
  const auto counter = [&](const char* name) {
    const auto it = t.counters.find(name);
    return it == t.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  MetricMap m;
  const auto seconds = [&](const std::string& metric, const std::string& layer) {
    m[metric] = {self[layer], "s"};
  };
  seconds("climate.synth_s", "climate.synth");
  seconds("core.stats_build_s", "core.stats_build");
  seconds("core.variable_self_s", "core.variable");
  seconds("core.grib_tune_s", "core.grib_tune");
  seconds("core.pvt_self_s", "core.pvt");
  seconds("core.ooc_stage_s", "core.ooc_stage");
  seconds("core.ooc_stats_s", "core.ooc_stats");
  for (const char* family : {"fpzip", "apax", "isabela", "grib2"}) {
    const std::string base = std::string("compress.") + family;
    seconds(base + ".encode_s", base + ".encode");
    seconds(base + ".decode_s", base + ".decode");
  }
  for (const char* family : {"fpzip", "isabela", "grib2"}) {
    const std::string base = std::string("compress.") + family;
    seconds(base + ".prep_s", base + ".prep");
  }

  double encode_s = 0.0;
  double decode_s = 0.0;
  for (const auto& [layer, s] : self) {
    if (layer.rfind("compress.", 0) != 0) continue;
    if (layer.size() > 7 && layer.compare(layer.size() - 7, 7, ".encode") == 0) encode_s += s;
    if (layer.size() > 7 && layer.compare(layer.size() - 7, 7, ".decode") == 0) decode_s += s;
  }
  const auto rate = [](double elems, double s) {
    return s > 0.0 ? elems * sizeof(float) / kMiB / s : 0.0;
  };
  m["compress.encode_mb_per_s"] = {rate(counter("codec.elements_in"), encode_s), "MiB/s"};
  m["compress.decode_mb_per_s"] = {rate(counter("codec.elements_out"), decode_s), "MiB/s"};
  const double built = counter("prep.plan_built");
  m["compress.prep_reuse_ratio"] = {
      built > 0.0 ? (built + counter("prep.plan_reused")) / built : 0.0, "ratio"};
  m["core.grib_tune_attempts"] = {counter("grib.tune_attempts"), "count"};
  m["core.variable_ms_p50"] = {median(t.job_ms), "ms"};
  m["serve.wire_ms_p50"] = {median(t.wire_ms), "ms"};
  m["trace.wall_s"] = {t.wall_s, "s"};
  m["trace.unattributed_s"] = {self["trace.unattributed"], "s"};
  m["trace.overhead_frac"] = {t.off_s > 0.0 ? (t.on_s - t.off_s) / t.off_s : 0.0, "ratio"};
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = Options::parse(argc, argv, "cesm_trace");
  const EnvInfo env = pin_environment(1);
  const Workload w = make_workload(opt);
  print_header("cesm_trace", opt, env, w);
  Trace t;
  try {
    if (w.kind == Kind::kServe) {
      trace_serve(w, opt, t);
    } else {
      trace_batch(w, opt, t);
    }
  } catch (const OutputMismatch& e) {
    std::fprintf(stderr, "cesm_trace: output mismatch: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cesm_trace: %s\n", e.what());
    return 3;
  }

  const MetricMap layers = layer_metrics(t);
  double ledger_sum = 0.0;
  std::printf("# ledger (self seconds, share of %.6f s traced wall)\n", t.wall_s);
  for (const auto& [layer, s] : t.self) {
    ledger_sum += s;
    std::printf("#   %-28s %12.6f %7.2f%%\n", layer.c_str(), s,
                t.wall_s > 0.0 ? 100.0 * s / t.wall_s : 0.0);
  }
  const double sum_error = t.wall_s > 0.0 ? (ledger_sum - t.wall_s) / t.wall_s : 0.0;
  print_metrics(layers);
  std::printf("# ledger_sum_error=%.3g csv_fnv=%s\n", sum_error, fnv_hex(t.csv).c_str());

  const std::string spans_path =
      !opt.spans_path.empty() ? opt.spans_path : opt.work_dir + "/spans-" + w.name + ".json";
  Json j;
  j.begin_object();
  j.key("tool").str("cesm_trace");
  j.key("workload").str(w.name);
  j.key("seed").integer(opt.seed);
  j.key("smoke").boolean(opt.smoke);
  j.key("env").begin_object();
  j.key("hardware_concurrency").integer(env.hardware_concurrency);
  j.key("workers").integer(env.workers);
  j.key("simd").str(env.simd);
  j.key("build_type").str(env.build_type);
  j.end_object();
  j.key("correct").boolean(std::abs(sum_error) <= 0.01);
  j.key("attempted").integer(t.attempted);
  j.key("failed").integer(0);
  j.key("csv_fnv").str(fnv_hex(t.csv));
  j.key("ledger_sum_error").num(sum_error);
  j.key("ledger").begin_object();
  for (const auto& [layer, s] : t.self) j.key(layer).num(s);
  j.end_object();
  j.key("layers").metrics(layers);
  j.key("spans").str(spans_path);
  j.end_object();
  try {
    write_file(spans_path, t.spans.text() + "\n");
    if (!opt.out_path.empty()) write_file(opt.out_path, j.text() + "\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cesm_trace: %s\n", e.what());
    return 3;
  }
  std::printf("%s\n", j.text().c_str());
  return 0;
}
