#include "serve/server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

#include "core/ensemble_cache.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/trace.h"

namespace cesm::serve {

namespace {

/// Internal signal for an admission-control reject; converted to the
/// typed kQueueFull wire error in handle_verify. Never escapes the class.
struct AdmissionReject {};

std::uint64_t ensemble_spec_key(const climate::EnsembleSpec& spec) {
  util::KeyHasher h;
  h.str("cesmd.ensemble.v1");
  core::hash_ensemble_spec(h, spec);
  return h.digest();
}

/// Bucket index of a latency in microseconds (see kLatencyBuckets).
std::size_t latency_bucket(std::uint64_t us, std::size_t buckets) {
  return std::min<std::size_t>(std::bit_width(us | 1) - 1, buckets - 1);
}

/// Largest latency bucket `b` holds: 2^(b+1) - 1 us.
std::uint64_t bucket_upper_us(std::size_t b) { return (std::uint64_t{2} << b) - 1; }

}  // namespace

Server::Server(ServerConfig config) : config_(std::move(config)) {}

Server::~Server() { stop(); }

void Server::start() {
  CESM_REQUIRE(!started_.load());
  if (::pipe(wake_pipe_) != 0) throw IoError("cesmd: cannot create wake pipe");
  if (!config_.unix_path.empty()) {
    listener_ = util::listen_unix(config_.unix_path);
  } else {
    listener_ = util::listen_tcp(config_.tcp_port, &bound_port_);
  }
  started_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::stop() {
  if (!started_.load()) return;
  {
    std::lock_guard lock(drain_mu_);
    if (draining_.load()) {
      // A second stop() only needs to wait for the first to finish; the
      // join below is what makes stop() idempotent, and the first caller
      // does all the work.
    }
    draining_.store(true);
  }
  // Wake the accept loop's poll and retire it: no new connections.
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();

  // Drain: every admitted request finishes and writes its response
  // before any socket is touched. New frames read meanwhile are answered
  // with kShuttingDown (they see draining_ under drain_mu_).
  {
    std::unique_lock lock(drain_mu_);
    drain_cv_.wait(lock, [this] { return active_requests_ == 0; });
  }

  // Unblock idle readers and join everything.
  {
    std::lock_guard lock(conn_mu_);
    for (const auto& conn : connections_) conn->socket.shutdown_both();
  }
  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard lock(conn_mu_);
      if (connections_.empty()) break;
      conn = std::move(connections_.back());
      connections_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
  listener_.close();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());
  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listener_.fd(), POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if ((fds[1].revents & POLLIN) != 0 || draining_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;

    util::Socket sock = util::accept_connection(listener_);
    if (!sock.valid()) continue;
    trace::add(trace::Counter::kServeConnections);
    reap_connections();

    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(sock);
    Connection* raw = conn.get();
    {
      std::lock_guard lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread = std::thread([this, raw] { serve_connection(raw); });
  }
}

void Server::reap_connections() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard lock(conn_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // Join outside the lock; a done thread finishes immediately.
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

void Server::serve_connection(Connection* conn) {
  struct DoneGuard {
    Connection* c;
    ~DoneGuard() {
      // Shut down (not close: the fd stays reserved until the Connection
      // is reaped, so stop()'s own shutdown_both cannot race a reused
      // descriptor). Without this, a client waiting for EOF after a
      // framing error would block until the next reap.
      c->socket.shutdown_both();
      c->done.store(true, std::memory_order_release);
    }
  } done_guard{conn};
  const util::Socket& sock = conn->socket;
  try {
    for (;;) {
      std::optional<util::Frame> frame = util::read_frame(sock, config_.max_frame_bytes);
      if (!frame.has_value()) return;  // client closed cleanly

      switch (static_cast<MessageType>(frame->type)) {
        case MessageType::kPing:
          trace::add(trace::Counter::kServePings);
          util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kPong), {});
          break;
        case MessageType::kStatsRequest: {
          const Bytes payload = serialize_counters(counters());
          util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kStatsResponse),
                            payload);
          break;
        }
        case MessageType::kVerifyRequest:
          handle_verify(sock, frame->payload);
          break;
        default:
          trace::add(trace::Counter::kServeProtocolErrors);
          // The frame itself was well-formed, so the stream is still in
          // sync; answer and keep the connection.
          send_error(sock, ErrorCode::kUnsupportedType,
                     "unknown message type " + std::to_string(frame->type));
          break;
      }
    }
  } catch (const util::FrameTooLarge& e) {
    trace::add(trace::Counter::kServeProtocolErrors);
    send_error(sock, ErrorCode::kOversizedFrame, e.what());
  } catch (const FormatError& e) {
    // Bad magic / torn header: the byte stream can no longer be framed,
    // so answer once and drop the connection.
    trace::add(trace::Counter::kServeProtocolErrors);
    send_error(sock, ErrorCode::kMalformedFrame, e.what());
  } catch (const IoError&) {
    // Client vanished (mid-frame EOF, reset, send failure): nothing to
    // answer, nobody to answer it to.
  }
}

void Server::handle_verify(const util::Socket& sock, const Bytes& payload) {
  trace::Span span("serve.request");
  trace::add(trace::Counter::kServeRequests);
  // Every exit writes exactly one response (or finds the client gone);
  // each counts once in the latency histogram.
  struct LatencyGuard {
    Server* s;
    std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
    ~LatencyGuard() {
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      s->request_us_buckets_[latency_bucket(static_cast<std::uint64_t>(us),
                                            kLatencyBuckets)]
          .fetch_add(1, std::memory_order_relaxed);
    }
  } latency{this};

  // Register with the drain accounting BEFORE checking the drain flag:
  // stop() flips the flag and then waits for active_requests_ to reach
  // zero under the same mutex, so a request either sees draining_ here
  // or is fully served (response written) before sockets shut down.
  bool draining = false;
  {
    std::lock_guard lock(drain_mu_);
    ++active_requests_;
    draining = draining_.load();
  }
  struct DrainGuard {
    Server* s;
    ~DrainGuard() {
      {
        std::lock_guard lock(s->drain_mu_);
        --s->active_requests_;
      }
      s->drain_cv_.notify_all();
    }
  } guard{this};

  if (draining) {
    trace::add(trace::Counter::kServeRejectedShutdown);
    send_error(sock, ErrorCode::kShuttingDown, "daemon is draining");
    return;
  }

  VerifyRequest request;
  try {
    // Version first: a client from a different protocol generation gets
    // the precise error, not a layout-dependent parse failure.
    ByteReader peek(payload);
    if (peek.remaining() >= 4 && peek.u32() != kProtocolVersion) {
      send_error(sock, ErrorCode::kUnsupportedVersion,
                 "server speaks protocol version " + std::to_string(kProtocolVersion));
      return;
    }
    request = parse_verify_request(payload);
  } catch (const FormatError& e) {
    trace::add(trace::Counter::kServeProtocolErrors);
    send_error(sock, ErrorCode::kMalformedFrame, e.what());
    return;
  }

  try {
    CESM_FAILPOINT("serve.request");
    bool coalesced = false;
    const std::shared_ptr<const core::VariableResult> result =
        compute_coalesced(request, &coalesced);
    const Bytes response =
        serialize_variable_result(filter_result(*result, request.variants));
    util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kVerifyResponse),
                      response);
    trace::add(trace::Counter::kServeResponses);
  } catch (const AdmissionReject&) {
    trace::add(trace::Counter::kServeRejectedQueueFull);
    send_error(sock, ErrorCode::kQueueFull,
               "admission control: " + std::to_string(config_.max_inflight) +
                   " computations already in flight");
  } catch (const InvalidArgument& e) {
    send_error(sock, ErrorCode::kBadRequest, e.what());
  } catch (const IoError&) {
    throw;  // response write failed: connection-level, handled by caller
  } catch (const Error& e) {
    trace::add(trace::Counter::kServeProcessingFailures);
    send_error(sock, ErrorCode::kProcessingFailed, e.what());
  }
}

std::shared_ptr<const core::VariableResult> Server::compute_coalesced(
    const VerifyRequest& request, bool* coalesced) {
  const std::uint64_t key = coalescing_key(request);
  std::shared_ptr<Flight> flight;
  std::shared_ptr<std::promise<std::shared_ptr<const core::VariableResult>>> promise;
  {
    std::lock_guard lock(flight_mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Join the computation already in flight. No admission check: a
      // joiner adds no work, only a waiter.
      flight = it->second;
      *coalesced = true;
      trace::add(trace::Counter::kServeCoalescedJoins);
    } else {
      if (flights_active_ >= config_.max_inflight) throw AdmissionReject{};
      promise = std::make_shared<
          std::promise<std::shared_ptr<const core::VariableResult>>>();
      flight = std::make_shared<Flight>();
      flight->future = promise->get_future().share();
      flights_.emplace(key, flight);
      ++flights_active_;
      trace::add(trace::Counter::kServeFlights);
      *coalesced = false;
    }
  }

  if (promise != nullptr) {
    try {
      promise->set_value(compute_result(request));
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
    {
      std::lock_guard lock(flight_mu_);
      flights_.erase(key);
      --flights_active_;
    }
  }
  return flight->future.get();  // rethrows the leader's failure for everyone
}

std::shared_ptr<const core::VariableResult> Server::compute_result(
    const VerifyRequest& request) {
  const std::shared_ptr<const climate::EnsembleGenerator> ensemble =
      generator_for(request.ensemble);
  // run_suite, not run_variable: the retry/quarantine policy
  // (variable_retry_limit, continue_on_variable_error) must behave
  // exactly as it does in-process, or responses would not be
  // bit-identical under injected faults.
  core::SuiteResults results =
      core::run_suite(*ensemble, request.config, {request.variable});
  CESM_REQUIRE(results.variables.size() == 1);
  return std::make_shared<const core::VariableResult>(std::move(results.variables[0]));
}

std::shared_ptr<const climate::EnsembleGenerator> Server::generator_for(
    const climate::EnsembleSpec& spec) {
  const std::uint64_t key = ensemble_spec_key(spec);
  std::lock_guard lock(gen_mu_);
  auto it = generators_.find(key);
  if (it != generators_.end()) return it->second;
  // Constructed under the lock: generator setup (Lorenz-96 climatology)
  // is expensive enough that two concurrent builders would waste more
  // than the serialization costs. One entry per distinct spec, kept for
  // the daemon's lifetime (a handful of specs in practice).
  auto generator = std::make_shared<const climate::EnsembleGenerator>(spec);
  generators_.emplace(key, generator);
  return generator;
}

void Server::send_error(const util::Socket& sock, ErrorCode code,
                        const std::string& message) {
  try {
    const Bytes payload = serialize_error(ErrorInfo{code, message});
    util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kErrorResponse),
                      payload);
  } catch (const IoError&) {
    // The client is gone; the error had nowhere to go.
  }
}

std::map<std::string, std::uint64_t> Server::counters() const {
  std::array<std::uint64_t, kLatencyBuckets> hist{};
  std::uint64_t timed = 0;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    hist[b] = request_us_buckets_[b].load(std::memory_order_relaxed);
    timed += hist[b];
  }
  // Upper edge of the bucket holding the ceil(q * timed)-th fastest request.
  const auto quantile_us = [&](double q) -> std::uint64_t {
    if (timed == 0) return 0;
    const auto rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(timed))));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
      seen += hist[b];
      if (seen >= rank) return bucket_upper_us(b);
    }
    return bucket_upper_us(kLatencyBuckets - 1);
  };
  std::map<std::string, std::uint64_t> out = trace::counters();
  out.emplace("serve.request_us_p50", quantile_us(0.50));
  out.emplace("serve.request_us_p99", quantile_us(0.99));
  out.emplace("serve.request_us_max", quantile_us(1.0));
  return out;
}

}  // namespace cesm::serve
