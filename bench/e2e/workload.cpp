#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <thread>

#include "compress/simd.h"
#include "core/ensemble_cache.h"
#include "util/cache.h"
#include "util/error.h"
#include "util/scheduler.h"

#ifndef CESM_E2E_BUILD_TYPE
#define CESM_E2E_BUILD_TYPE "unknown"
#endif

namespace cesm::e2e {

namespace {

/// SplitMix64: the benchmark's own input generator, so the inputs a seed
/// names never depend on the library's RNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  [[nodiscard]] std::uint64_t state() const { return s_; }

 private:
  std::uint64_t s_;
};

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  return Rng(seed ^ (salt * 0xd1b54a32d192ed03ull)).next();
}

/// The paper's nine variant names, the pool serve filters draw from.
const std::vector<std::string>& variant_names() {
  static const std::vector<std::string> kNames = {
      "GRIB2",    "APAX-2",  "APAX-4",  "APAX-5", "fpzip-24",
      "fpzip-16", "ISA-0.1", "ISA-0.5", "ISA-1.0"};
  return kNames;
}

/// `count` catalog names at an even stride: a fixed spread of shapes,
/// magnitudes and fill layouts.
std::vector<std::string> stride(const std::vector<climate::VariableSpec>& catalog,
                                std::size_t count) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < count; ++i) {
    names.push_back(catalog[i * catalog.size() / count].name);
  }
  return names;
}

bool is_trace(const char* tool) { return std::strcmp(tool, "cesm_trace") == 0; }

[[noreturn]] void usage(const char* tool) {
  std::fprintf(stderr,
               "usage: %s --workload=NAME%s [--seed=N] [--seconds=S] [--smoke]\n"
               "          [--out=PATH] [--work-dir=DIR]%s\n"
               "  workloads:",
               tool, is_trace(tool) ? " --expect-csv-fnv=HEX" : "",
               is_trace(tool) ? " [--spans=PATH]" : " [--zipf=S] [--pool=N]");
  for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string executable_dir() {
  std::error_code ec;
  const std::filesystem::path exe = std::filesystem::read_symlink("/proc/self/exe", ec);
  return ec ? std::string(".") : exe.parent_path().string();
}

}  // namespace

Options Options::parse(int argc, char** argv, const char* tool) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const std::string v = eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "--workload") {
      o.workload = v;
    } else if (name == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') usage(tool);
    } else if (name == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.seconds > 0.0)) usage(tool);
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (name == "--out") {
      o.out_path = v;
    } else if (name == "--work-dir") {
      o.work_dir = v;
    } else if (name == "--expect-csv-fnv" && is_trace(tool)) {
      o.expect_csv_fnv = v;
    } else if (name == "--spans" && is_trace(tool)) {
      o.spans_path = v;
    } else if (name == "--zipf" && !is_trace(tool)) {
      o.zipf_exponent = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(o.zipf_exponent > 0.0)) usage(tool);
    } else if (name == "--pool" && !is_trace(tool)) {
      o.pool = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || o.pool == 0) usage(tool);
    } else {
      usage(tool);
    }
  }
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) usage(tool);
  if (is_trace(tool) && (o.expect_csv_fnv.size() != 16 ||
                         o.expect_csv_fnv.find_first_not_of("0123456789abcdef") !=
                             std::string::npos)) {
    usage(tool);
  }
  if (o.work_dir.empty()) o.work_dir = executable_dir() + "/work";
  if (o.smoke) o.seconds = std::min(o.seconds, 0.5);
  return o;
}

EnvInfo pin_environment(std::size_t workers) {
  if (const char* fp = std::getenv("CESM_FAILPOINTS"); fp != nullptr && *fp != '\0') {
    std::fprintf(stderr, "refusing to run with CESM_FAILPOINTS set (\"%s\")\n", fp);
    std::exit(2);
  }
  for (const char* var : {"CESM_THREADS", "CESM_CACHE", "CESM_CACHE_MB", "CESM_CACHE_DIR",
                          "CESM_CACHE_DISK_MB", "CESM_MEM_MB"}) {
    ::unsetenv(var);
  }
  EnvInfo env;
  env.hardware_concurrency = std::thread::hardware_concurrency();
  env.workers = std::clamp<std::size_t>(workers, 1,
                                        std::max(1u, env.hardware_concurrency));
  if (!Scheduler::set_default_threads(env.workers) ||
      Scheduler::global().thread_count() != env.workers) {
    std::fprintf(stderr, "could not pin the scheduler to %zu workers\n", env.workers);
    std::exit(2);
  }
  util::CacheConfig off;
  off.enabled = false;
  core::EnsembleCache::global().configure(off);
  env.simd = comp::simd::mode_name(comp::simd::active_mode());
  env.build_type = CESM_E2E_BUILD_TYPE;
  return env;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {"incore_bias", "incore_sweep",
                                                  "stream_fullgrid", "serve_zipf"};
  return kNames;
}

Workload make_workload(const Options& o) {
  // The seed sets the test-member picks and the serve request draws. The
  // variables and the ensemble data are fixed: seeded variable picks and
  // seeded latent dynamics made the work itself vary by 11-15% between
  // seeds, more than the bounds allow (README.md).
  Workload w;
  w.name = o.workload;
  const std::vector<climate::VariableSpec> catalog = climate::build_catalog();
  w.suite.member_seed = mix(o.seed, 2);
  if (o.smoke) {
    w.setup_reps = 1;
    w.min_passes = 1;
  }

  if (w.name == "incore_bias") {
    // The bias sweep decodes and z-scores every member for every variant:
    // the four spotlights plus a 3-D field and a 2-D field with fill values.
    w.ensemble.grid = climate::GridSpec::reduced();
    w.ensemble.members = o.smoke ? 31 : 101;
    w.variables = o.smoke ? std::vector<std::string>{"FSDSC", "U"}
                          : std::vector<std::string>{"U", "FSDSC", "Z3", "CCN3", "T", "SST"};
    w.suite.run_bias = true;
  } else if (w.name == "incore_sweep") {
    // Every catalog shape through tuning, plans, encode and tests 1-3,
    // with synthesis, stats build and the bias sweep kept out of the pass.
    w.ensemble.grid = climate::GridSpec::reduced();
    w.ensemble.members = 31;
    w.variables = stride(catalog, o.smoke ? 16 : catalog.size());
    w.suite.run_bias = false;
    w.suite.variant_jobs = 0;
    w.cache_on = true;
    w.cache_bytes = 512ull << 20;
  } else if (w.name == "stream_fullgrid") {
    w.kind = Kind::kStream;
    w.ensemble.grid = climate::GridSpec::paper();
    w.ensemble.members = o.smoke ? 31 : 51;
    w.variables = o.smoke ? std::vector<std::string>{"FSDSC"}
                          : std::vector<std::string>{"FSDSC", "SST", "PRECT", "CLDLOW"};
    w.suite.run_bias = true;
    w.ooc.chunk_elems = 65536;
    w.ooc.memory_budget_bytes = 96ull << 20;
    w.ooc.spill_dir = o.work_dir + "/spill-" + w.name;
    w.ooc.reuse_spill = false;
  } else {
    // Synthetic traffic (no request log backs it): a key pool in
    // popularity order, rank k drawn with weight 1/k^1.1.
    w.kind = Kind::kServe;
    w.ensemble.grid = climate::GridSpec{16, 108, 8};
    w.ensemble.members = 31;
    w.variables = stride(catalog, o.pool != 0 ? std::min(o.pool, catalog.size())
                                  : o.smoke   ? 8
                                              : 48);
    w.zipf_exponent = o.zipf_exponent != 0.0 ? o.zipf_exponent : 1.1;
    w.suite.run_bias = false;
    w.cache_on = true;
    w.cache_bytes = 256ull << 20;
  }
  w.ooc.suite = w.suite;
  return w;
}

void configure_cache(const Workload& w) {
  util::CacheConfig config;
  config.enabled = w.cache_on;
  config.max_bytes = w.cache_bytes;
  core::EnsembleCache::global().configure(config);
}

void warm_cache(const Workload& w, const climate::EnsembleGenerator& gen) {
  parallel_for(0, w.variables.size(), [&](std::size_t i) {
    (void)core::EnsembleCache::global().stats(gen, gen.variable(w.variables[i]));
  });
}

ServeRig::ServeRig(std::size_t client_count) {
  serve::ServerConfig config;
  config.tcp_port = 0;
  config.max_inflight = kMaxInflight;
  server = std::make_unique<serve::Server>(config);
  server->start();
  for (std::size_t c = 0; c < client_count; ++c) {
    clients.push_back(serve::Client::connect_tcp("127.0.0.1", server->port()));
  }
}

ServeRig::~ServeRig() {
  clients.clear();
  server->stop();
}

RequestStream::RequestStream(const Workload& w, std::uint64_t seed, std::size_t client)
    : state_(mix(seed, 100 + client)) {
  double total = 0.0;
  for (std::size_t k = 0; k < w.variables.size(); ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), w.zipf_exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

Request RequestStream::next() {
  Rng rng(state_);
  Request r;
  const double u = rng.uniform();
  r.key = static_cast<std::size_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                   cdf_.begin());
  r.key = std::min(r.key, cdf_.size() - 1);
  std::vector<std::string> names = variant_names();
  const std::size_t k = 1 + rng.below(3);
  for (std::size_t i = 0; i < k; ++i) {
    std::swap(names[i], names[i + rng.below(names.size() - i)]);
    r.variants.push_back(names[i]);
  }
  state_ = rng.state();
  return r;
}

serve::VerifyRequest to_verify_request(const Workload& w, const Request& r) {
  serve::VerifyRequest req;
  req.ensemble = w.ensemble;
  req.variable = w.variables[r.key];
  req.config = w.suite;
  req.variants = r.variants;
  return req;
}

void warm_keys(const Workload& w, ServeRig& rig) {
  const std::size_t n = rig.clients.size();
  std::vector<std::exception_ptr> errors(n);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (std::size_t k = c; k < w.variables.size(); k += n) {
          (void)rig.clients[c].verify_raw(to_verify_request(w, Request{k, {}}));
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::string fnv_hex(const std::string& bytes) {
  const std::uint64_t h = util::fnv1a64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::size_t failed_variables(const core::SuiteResults& results) {
  std::size_t failed = 0;
  for (const core::VariableResult& v : results.variables) {
    bool bad = v.processing_failed;
    for (const core::VariableVerdict& verdict : v.verdicts) bad = bad || verdict.codec_error;
    failed += bad ? 1 : 0;
  }
  return failed;
}

void Json::separate() {
  if (need_comma_) out_ += ',';
  need_comma_ = false;
}

Json& Json::key(const std::string& k) {
  separate();
  str(k);
  out_ += ':';
  need_comma_ = false;
  return *this;
}

Json& Json::str(const std::string& v) {
  separate();
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  need_comma_ = true;
  return *this;
}

Json& Json::num(double v) {
  separate();
  if (std::isfinite(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out_ += buf;
  } else {
    out_ += "null";
  }
  need_comma_ = true;
  return *this;
}

Json& Json::integer(std::uint64_t v) {
  separate();
  out_ += std::to_string(v);
  need_comma_ = true;
  return *this;
}

Json& Json::boolean(bool v) {
  separate();
  out_ += v ? "true" : "false";
  need_comma_ = true;
  return *this;
}

Json& Json::begin_object() {
  separate();
  out_ += '{';
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::begin_array() {
  separate();
  out_ += '[';
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Json& Json::metrics(const MetricMap& m) {
  begin_object();
  for (const auto& [name, metric] : m) {
    key(name).begin_object().key("value").num(metric.value);
    key("unit").str(metric.unit).end_object();
  }
  return end_object();
}

Json& Json::numbers(const std::vector<double>& v) {
  begin_array();
  for (double x : v) num(x);
  return end_array();
}

Json& Json::raw(const std::string& json) {
  separate();
  out_ += json;
  need_comma_ = true;
  return *this;
}

void write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    f << text;
    if (!f.flush()) throw IoError("cannot write " + tmp);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, target, ec);
  if (ec) throw IoError("cannot rename " + tmp + " to " + path + ": " + ec.message());
}

void print_metrics(const MetricMap& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %.17g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

void print_header(const char* tool, const Options& o, const EnvInfo& env,
                  const Workload& w) {
  const climate::GridSpec& g = w.ensemble.grid;
  std::printf("# %s workload=%s seed=%llu smoke=%d seconds=%g\n", tool, w.name.c_str(),
              static_cast<unsigned long long>(o.seed), o.smoke ? 1 : 0, o.seconds);
  std::printf("# hardware_concurrency=%u workers=%zu simd=%s build_type=%s\n",
              env.hardware_concurrency, env.workers, env.simd.c_str(),
              env.build_type.c_str());
  std::printf("# grid=%zux%zux%zu members=%zu variables=%zu bias=%d cache=%s\n", g.nlat,
              g.nlon, g.nlev, w.ensemble.members, w.variables.size(),
              w.suite.run_bias ? 1 : 0,
              w.cache_on ? (std::to_string(w.cache_bytes >> 20) + "MiB").c_str() : "off");
  if (w.kind == Kind::kServe) {
    std::printf("# synthetic traffic: clients=%zu max_inflight=%zu zipf=%g pool=%zu\n",
                kServeClients, kMaxInflight, w.zipf_exponent, w.variables.size());
  }
  std::fflush(stdout);
}

}  // namespace cesm::e2e
