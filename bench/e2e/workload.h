#pragma once
// The end-to-end benchmark's shared definitions: the four named workloads,
// the inputs each derives from --seed, the pinned process environment, and
// small timing / statistics / JSON helpers.
//
// cesm_bench (timed) and cesm_trace (per-layer ledger) build every input
// through this file, so one seed gives both tools the same variables,
// configs and request sequence. cesm_bench must survive refactors of the
// library's layers, so this file calls only the stable entry points:
// EnsembleGenerator, EnsembleCache, run_suite, run_suite_streaming,
// suite_results_csv, serve::Server / serve::Client and the protocol's result
// serialization, Scheduler::stats, MemoryBudget and peak_rss_bytes.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "climate/ensemble.h"
#include "core/ooc.h"
#include "core/suite.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace cesm::e2e {

/// Command line shared by both tools.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed window (cesm_bench)
  bool smoke = false;     ///< shrink the workload to a few seconds
  std::string out_path;   ///< JSON result file (empty: stdout only)
  std::string work_dir;   ///< scratch for spills; default: next to the binary
  std::string expect_csv_fnv;  ///< cesm_trace (required): digest cesm_bench printed
  std::string spans_path;      ///< cesm_trace: where to write the span trees
  /// serve_zipf sensitivity overrides (0: the workload's own values). The
  /// benchmark never sets them; they exist to show how the serve metrics
  /// depend on the synthetic traffic mix.
  double zipf_exponent = 0.0;
  std::size_t pool = 0;

  /// Exits with status 2 and a usage message on a malformed command line.
  static Options parse(int argc, char** argv, const char* tool);
};

/// What the process ran on, printed as the run header.
struct EnvInfo {
  unsigned hardware_concurrency = 0;
  std::size_t workers = 0;
  std::string simd;
  std::string build_type;
};

/// Pin everything the CESM_* environment could change: the worker count
/// (min(workers, hardware_concurrency)), the ensemble cache, the memory
/// budget and the thread count are set in code, and those variables are
/// cleared before the library reads them. Refuses (exit 2) to run with
/// CESM_FAILPOINTS set: injected faults are not a benchmark. Call first.
EnvInfo pin_environment(std::size_t workers);

enum class Kind { kInCore, kStream, kServe };

/// One named, seeded workload.
struct Workload {
  std::string name;
  Kind kind = Kind::kInCore;
  climate::EnsembleSpec ensemble;
  /// Batch: the variables of every pass, in order. Serve: the key pool,
  /// most popular first.
  std::vector<std::string> variables;
  /// Serve: key k (0-based) is drawn with weight 1/(k+1)^zipf_exponent.
  double zipf_exponent = 0.0;
  core::SuiteConfig suite;
  bool cache_on = false;
  std::size_t cache_bytes = 0;
  core::OocConfig ooc;  ///< stream only; ooc.suite == suite
  std::size_t setup_reps = 3;
  std::size_t min_passes = 3;
};

/// serve_zipf: closed-loop clients and the server's admission bound. The
/// traffic mix is synthetic: no request log backs it (README.md).
inline constexpr std::size_t kServeClients = 4;
inline constexpr std::size_t kMaxInflight = 4;

/// The workload `options.workload` for `options.seed`; exits with status 2
/// on an unknown name.
Workload make_workload(const Options& options);

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Verdicts per suite variable: the paper's nine variants.
inline constexpr std::size_t kVariantsPerVariable = 9;

// --- setup steps shared by both tools ---------------------------------------

/// Replace the process ensemble cache with the workload's (cold) tier.
void configure_cache(const Workload& w);

/// Fill the ensemble cache with every variable of the workload.
void warm_cache(const Workload& w, const climate::EnsembleGenerator& gen);

/// A running in-process cesmd on loopback TCP with one connected client
/// per closed-loop client thread. Destruction closes the clients, then
/// drains and stops the server.
struct ServeRig {
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;

  explicit ServeRig(std::size_t client_count);
  ~ServeRig();
  ServeRig(const ServeRig&) = delete;
  ServeRig& operator=(const ServeRig&) = delete;
};

/// One serve request: a key (index into Workload::variables) plus a
/// 1-3 variant filter.
struct Request {
  std::size_t key = 0;
  std::vector<std::string> variants;
};

/// Closed-loop request source of one client: Zipf(w.zipf_exponent) over
/// the key pool, seeded by (seed, client).
class RequestStream {
 public:
  RequestStream(const Workload& w, std::uint64_t seed, std::size_t client);
  Request next();

 private:
  std::uint64_t state_;
  std::vector<double> cdf_;
};

serve::VerifyRequest to_verify_request(const Workload& w, const Request& r);

/// Request every key once, spread over the rig's clients (the serve
/// workload's key warm-up). Throws on any error response.
void warm_keys(const Workload& w, ServeRig& rig);

// --- helpers -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (user + system) in seconds.
double cpu_seconds();

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// FNV-1a 64 digest of `bytes`, as 16 hex digits.
std::string fnv_hex(const std::string& bytes);

/// Variables with processing_failed set or any codec-error verdict.
std::size_t failed_variables(const core::SuiteResults& results);

/// A metric as the tools report it.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// Minimal JSON writer for the tools' result objects.
class Json {
 public:
  Json& key(const std::string& k);
  Json& str(const std::string& v);
  Json& num(double v);
  Json& integer(std::uint64_t v);
  Json& boolean(bool v);
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& metrics(const MetricMap& m);
  Json& numbers(const std::vector<double>& v);
  /// Append an already-serialized JSON value.
  Json& raw(const std::string& json);
  [[nodiscard]] const std::string& text() const { return out_; }

 private:
  void separate();
  std::string out_;
  bool need_comma_ = false;
};

/// Write `text` to `path` (temp + rename). Throws IoError.
void write_file(const std::string& path, const std::string& text);

/// "name value unit" lines, one per metric.
void print_metrics(const MetricMap& m);

/// The run header (environment and workload identity) on stdout.
void print_header(const char* tool, const Options& o, const EnvInfo& env,
                  const Workload& w);

}  // namespace cesm::e2e
