// cesmd load generator: throughput, tail latency, coalescing, parity.
//
// Drives a cesmd daemon with N concurrent clients issuing verification
// requests in synchronized waves. Each wave fires every client at the
// same coalescing key simultaneously, so the daemon's single-flight path
// is exercised on purpose — the run FAILS (exit 1) if the daemon never
// coalesced, because that would mean the serving tier silently degraded
// to one computation per client.
//
// Two daemon modes:
//   (default)        an in-process serve::Server on an ephemeral port —
//                    self-contained, used by local runs;
//   --port=N         connect to an externally started cesmd on loopback
//   --socket=PATH    ... or on a unix socket. This is the CI shape: the
//                    workflow starts ./cesmd --port=0, scrapes the bound
//                    port off its stdout, and points this bench at it.
//
// Parity gate: every response's bytes are memcmp'd against the local
// serialization of an in-process run_suite for that request. Any
// difference is a hard failure — the daemon's entire contract is that
// it answers with exactly the bytes the library would produce.
//
// Output: a summary table on stdout and BENCH_serving.json (override
// with --out=PATH): rps, p50/p99 latency, request/flight/coalescing
// counts, and the parity verdict. --quick shrinks the wave count for CI.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "climate/ensemble.h"
#include "core/export.h"
#include "core/suite.h"
#include "serve/client.h"
#include "util/memory.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/signals.h"
#include "util/stopwatch.h"

namespace {

using namespace cesm;

struct Args {
  bool quick = false;
  std::size_t clients = 8;
  std::size_t waves = 6;
  std::uint16_t port = 0;        ///< nonzero: external daemon on loopback
  std::string socket_path;       ///< non-empty: external daemon on unix socket
  std::string out_path = "BENCH_serving.json";
};

[[noreturn]] void usage(int code) {
  std::fprintf(stderr,
               "usage: bench_serving [--quick] [--clients=N] [--waves=N]\n"
               "                     [--port=N | --socket=PATH] [--out=PATH]\n");
  std::exit(code);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--quick") {
      args.quick = true;
    } else if (arg.rfind("--clients=", 0) == 0) {
      args.clients = std::stoul(value("--clients="));
    } else if (arg.rfind("--waves=", 0) == 0) {
      args.waves = std::stoul(value("--waves="));
    } else if (arg.rfind("--port=", 0) == 0) {
      args.port = static_cast<std::uint16_t>(std::stoul(value("--port=")));
    } else if (arg.rfind("--socket=", 0) == 0) {
      args.socket_path = value("--socket=");
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out_path = value("--out=");
    } else if (arg == "--help") {
      usage(0);
    } else {
      std::fprintf(stderr, "bench_serving: unknown argument %s\n", arg.c_str());
      usage(2);
    }
  }
  if (args.clients == 0 || args.waves == 0) usage(2);
  return args;
}

/// The bench workload: a small ensemble so a wave completes in hundreds
/// of milliseconds, with distinct variables (distinct coalescing keys)
/// alternating across waves.
serve::VerifyRequest wave_request(std::size_t wave) {
  static const char* kVariables[] = {"U", "FSDSC", "CCN3"};
  serve::VerifyRequest request;
  request.ensemble.grid = climate::GridSpec{12, 18, 3};
  request.ensemble.members = 9;
  request.ensemble.latent.k = 48;
  request.ensemble.latent.spinup_steps = 200;
  request.ensemble.latent.average_steps = 400;
  request.variable = kVariables[wave % (sizeof(kVariables) / sizeof(*kVariables))];
  request.config.test_member_count = 2;
  request.config.grib_max_extra_digits = 3;
  request.config.run_bias = false;
  return request;
}

serve::Client connect(const Args& args, const serve::Server* local) {
  if (!args.socket_path.empty()) return serve::Client::connect_unix(args.socket_path);
  if (args.port != 0) return serve::Client::connect_tcp("127.0.0.1", args.port);
  return serve::Client::connect_tcp("127.0.0.1", local->port());
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  util::install_signal_drain();

  // In-process daemon unless pointed at an external one.
  std::unique_ptr<serve::Server> local;
  if (args.socket_path.empty() && args.port == 0) {
    serve::ServerConfig cfg;
    cfg.max_inflight = args.clients;
    local = std::make_unique<serve::Server>(cfg);
    local->start();
  }

  try {
    const std::size_t waves = args.quick ? 3 : args.waves;

    // Local ground truth per wave, serialized with the canonical encoder.
    // (Distinct waves may share a variable; the map of expected bytes is
    // keyed by wave index anyway — recomputation is the honest baseline.)
    std::printf("bench_serving: computing local ground truth (%zu waves)...\n",
                waves);
    std::vector<Bytes> expected(waves);
    for (std::size_t w = 0; w < waves; ++w) {
      const serve::VerifyRequest request = wave_request(w);
      const climate::EnsembleGenerator ensemble(request.ensemble);
      core::SuiteResults results =
          core::run_suite(ensemble, request.config, {request.variable});
      expected[w] = serve::serialize_variable_result(
          serve::filter_result(results.variables.at(0), request.variants));
    }

    const auto before = connect(args, local.get()).stats();

    std::vector<double> latencies_ms;
    std::atomic<std::uint64_t> parity_failures{0};
    std::atomic<std::uint64_t> request_errors{0};
    std::mutex latency_mu;

    Stopwatch run_sw;
    for (std::size_t w = 0; w < waves && !util::interrupt_requested(); ++w) {
      const serve::VerifyRequest request = wave_request(w);
      std::vector<std::thread> threads;
      threads.reserve(args.clients);
      for (std::size_t c = 0; c < args.clients; ++c) {
        threads.emplace_back([&, w] {
          try {
            serve::Client client = connect(args, local.get());
            Stopwatch sw;
            const Bytes response = client.verify_raw(request);
            const double ms = sw.millis();
            if (response.size() != expected[w].size() ||
                std::memcmp(response.data(), expected[w].data(),
                            response.size()) != 0) {
              parity_failures.fetch_add(1);
            }
            std::lock_guard lock(latency_mu);
            latencies_ms.push_back(ms);
          } catch (const Error& e) {
            std::fprintf(stderr, "bench_serving: request failed: %s\n", e.what());
            request_errors.fetch_add(1);
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    const double run_seconds = run_sw.seconds();

    const auto after = connect(args, local.get()).stats();
    auto delta = [&](const char* key) { return after.at(key) - before.at(key); };
    const std::uint64_t requests = delta("serve.responses");
    const std::uint64_t flights = delta("serve.flights");
    const std::uint64_t coalesced = delta("serve.coalesced_joins");

    std::sort(latencies_ms.begin(), latencies_ms.end());
    const double p50 = percentile(latencies_ms, 0.50);
    const double p99 = percentile(latencies_ms, 0.99);
    const double rps =
        run_seconds > 0.0 ? static_cast<double>(latencies_ms.size()) / run_seconds : 0.0;
    const bool parity = parity_failures.load() == 0 && request_errors.load() == 0 &&
                        latencies_ms.size() == waves * args.clients;
    // One flight per wave is the ideal; anything below clients*waves
    // proves coalescing. Zero joins means single-flight never engaged.
    const bool coalescing_ok = coalesced > 0;

    std::printf("clients=%zu waves=%zu requests=%llu\n", args.clients, waves,
                static_cast<unsigned long long>(requests));
    std::printf("throughput: %.2f responses/s   latency p50 %.1f ms  p99 %.1f ms\n",
                rps, p50, p99);
    std::printf("flights=%llu coalesced_joins=%llu (%.0f%% of requests joined)\n",
                static_cast<unsigned long long>(flights),
                static_cast<unsigned long long>(coalesced),
                requests != 0 ? 100.0 * static_cast<double>(coalesced) /
                                    static_cast<double>(requests)
                              : 0.0);
    std::printf("parity vs in-process run_suite: %s\n", parity ? "yes" : "NO");
    std::printf("coalescing engaged: %s\n", coalescing_ok ? "yes" : "NO");

    std::ostringstream json;
    json << "{\n"
         << "  \"bench\": \"serving\",\n"
         << "  \"quick\": " << (args.quick ? "true" : "false") << ",\n"
         << "  \"clients\": " << args.clients << ",\n"
         << "  \"waves\": " << waves << ",\n"
         << "  \"requests\": " << requests << ",\n"
         << "  \"seconds\": " << run_seconds << ",\n"
         << "  \"rps\": " << rps << ",\n"
         << "  \"p50_ms\": " << p50 << ",\n"
         << "  \"p99_ms\": " << p99 << ",\n"
         << "  \"flights\": " << flights << ",\n"
         << "  \"coalesced_joins\": " << coalesced << ",\n"
         << "  \"peak_rss_bytes\": " << util::peak_rss_bytes() << ",\n"
         << "  \"parity\": " << (parity ? "true" : "false") << ",\n"
         << "  \"coalescing\": " << (coalescing_ok ? "true" : "false") << "\n"
         << "}\n";
    core::write_text_file(args.out_path, json.str());

    if (local != nullptr) local->stop();
    if (util::interrupt_requested()) return util::interrupt_exit_code();
    return parity && coalescing_ok ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_serving: %s\n", e.what());
    if (local != nullptr) local->stop();
    return 1;
  }
}
