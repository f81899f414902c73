#pragma once
// cesmd server core: verification-as-a-service on top of run_suite.
//
// One Server owns a listening socket (unix-domain or loopback TCP) and a
// thread per accepted connection. Verification requests are executed ON
// the connection thread by calling core::run_suite — connection threads
// are external threads to the work-stealing scheduler, so the suite's
// parallel_for submits through the injection queue and the thread help-
// joins: every concurrent request multiplexes onto the ONE process-wide
// worker pool instead of oversubscribing the machine with private pools.
//
// Three service disciplines sit between the socket and run_suite:
//
//   * Admission control — at most `max_inflight` distinct computations
//     run concurrently; a request that would start one more is rejected
//     immediately with a typed kQueueFull error (bounded work, never an
//     unbounded queue a client cannot reason about).
//   * Single-flight coalescing — concurrent requests whose
//     coalescing_key() matches join the computation already in flight
//     and all receive its result; EnsembleCache::global() additionally
//     memoizes the ensemble products ACROSS flights (the multi-tenant
//     tier), but only single-flight prevents concurrent duplicate
//     builds, which the cache explicitly permits. Coalesced joiners
//     bypass admission control: they add no work.
//   * Graceful drain — stop() (wired to SIGINT/SIGTERM in cesmd) stops
//     accepting, lets every in-flight request finish and write its
//     response, answers anything newly read with kShuttingDown, then
//     closes. No response is ever truncated by shutdown.
//
// Responses are bit-identical to an in-process run_suite of the same
// request: the payload is serialize_variable_result() of the (filtered)
// VariableResult, and run_suite is bit-deterministic at any thread
// count. tests/serve/test_server.cpp and the bench_serving CI gate
// compare the bytes with memcmp.

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "climate/ensemble.h"
#include "core/suite.h"
#include "serve/protocol.h"
#include "util/net.h"

namespace cesm::serve {

struct ServerConfig {
  /// Non-empty: listen on this unix-domain socket path. Empty: TCP.
  std::string unix_path;
  /// Loopback TCP port when unix_path is empty (0 = ephemeral; the bound
  /// port is readable via Server::port()).
  std::uint16_t tcp_port = 0;
  /// Admission bound: distinct computations allowed in flight at once.
  /// 0 rejects every request (used by the deterministic queue-full test).
  std::size_t max_inflight = 8;
  /// Per-frame payload ceiling enforced before any allocation.
  std::uint32_t max_frame_bytes = util::kMaxFramePayload;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the socket and start the accept loop. Throws IoError on bind
  /// failure. Call once.
  void start();

  /// Graceful drain (see file comment). Idempotent; blocks until every
  /// connection thread has exited.
  void stop();

  /// Bound TCP port (valid after start() when configured for TCP).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }
  [[nodiscard]] const ServerConfig& config() const { return config_; }

  /// Every row of the process-wide trace::counters() table (serve.requests,
  /// serve.coalesced_joins, serve.flights, codec.*, cache.*, ooc.*, ...)
  /// plus this server's serve.request_us_{p50,p99,max}. Also the payload
  /// of the kStatsRequest protocol message, which is how an
  /// out-of-process load generator observes coalescing. The counts are
  /// per process (cesmd runs one server per process); the latency
  /// quantiles read this instance's histogram (see kLatencyBuckets): 0
  /// before the first verify request, else the upper edge of the log2
  /// bucket holding that quantile, so within 2x above the true value.
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;

 private:
  struct Connection {
    util::Socket socket;
    std::thread thread;
    std::atomic<bool> done{false};  ///< set by the thread; reaped by accept_loop
  };

  /// One in-flight computation; coalesced joiners wait on the future.
  struct Flight {
    std::shared_future<std::shared_ptr<const core::VariableResult>> future;
  };

  void accept_loop();
  /// Join and drop finished connections (keeps a long-lived daemon from
  /// accumulating dead threads). Called from the accept loop.
  void reap_connections();
  void serve_connection(Connection* conn);
  /// Handle one verify request end-to-end; always writes exactly one
  /// response frame (result or typed error).
  void handle_verify(const util::Socket& socket, const Bytes& payload);
  /// Single-flight wrapper around compute_result.
  std::shared_ptr<const core::VariableResult> compute_coalesced(
      const VerifyRequest& request, bool* coalesced);
  std::shared_ptr<const core::VariableResult> compute_result(
      const VerifyRequest& request);
  std::shared_ptr<const climate::EnsembleGenerator> generator_for(
      const climate::EnsembleSpec& spec);
  void send_error(const util::Socket& socket, ErrorCode code,
                  const std::string& message);

  ServerConfig config_;
  util::Socket listener_;
  std::uint16_t bound_port_ = 0;
  int wake_pipe_[2] = {-1, -1};  ///< wakes the accept loop's poll on stop()
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};

  std::mutex conn_mu_;
  std::vector<std::unique_ptr<Connection>> connections_;

  std::mutex flight_mu_;
  std::map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  std::size_t flights_active_ = 0;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  std::size_t active_requests_ = 0;

  std::mutex gen_mu_;
  std::map<std::uint64_t, std::shared_ptr<const climate::EnsembleGenerator>> generators_;

  /// handle_verify latency, from the parsed frame to the response
  /// written, in microseconds: bucket b counts requests that took
  /// [2^b, 2^(b+1)) us (bucket 0 also takes 0 us; the last bucket is
  /// open-ended).
  static constexpr std::size_t kLatencyBuckets = 40;
  std::array<std::atomic<std::uint64_t>, kLatencyBuckets> request_us_buckets_{};
};

}  // namespace cesm::serve
