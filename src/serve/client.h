#pragma once
// cesmd client library.
//
// Thin, synchronous wrapper over the wire protocol: one Client owns one
// connection and issues one request at a time (the daemon coalesces and
// parallelizes across clients, not within one). The load generator
// (bench/bench_serving.cpp) opens N clients from N threads; the CI
// parity gate uses verify_raw() to memcmp a response against the local
// serialization of run_suite — which is why raw bytes are first-class
// here and the parsed convenience form is a wrapper.
//
// A typed server error (kQueueFull, kShuttingDown, ...) surfaces as
// RemoteError carrying the wire code, so callers can distinguish
// back-pressure from failure; transport problems stay IoError.

#include <cstdint>
#include <map>
#include <string>

#include "serve/protocol.h"
#include "util/error.h"
#include "util/net.h"

namespace cesm::serve {

/// A typed error response from the daemon.
class RemoteError : public Error {
 public:
  explicit RemoteError(const ErrorInfo& info)
      : Error(std::string("cesmd error [") + error_code_name(info.code) +
              "]: " + info.message),
        info_(info) {}
  [[nodiscard]] ErrorCode code() const { return info_.code; }
  [[nodiscard]] const std::string& message() const { return info_.message; }

 private:
  ErrorInfo info_;
};

class Client {
 public:
  /// Connect over a unix-domain socket.
  static Client connect_unix(const std::string& path);
  /// Connect over loopback TCP.
  static Client connect_tcp(const std::string& host, std::uint16_t port);

  /// Round-trip a ping (liveness probe; also how the bench waits for an
  /// out-of-process daemon to come up).
  void ping();

  /// Issue one verification request and return the raw response payload
  /// — the bytes the CI gate compares against a local run_suite
  /// serialization. Throws RemoteError on a typed error response,
  /// IoError/FormatError on transport or framing trouble.
  Bytes verify_raw(const VerifyRequest& request);

  /// verify_raw + parse.
  core::VariableResult verify(const VerifyRequest& request);

  /// Fetch the daemon's counters: the whole process-wide trace counter
  /// table (serve.coalesced_joins, codec.*, ...) plus serve.request_us_*.
  std::map<std::string, std::uint64_t> stats();

 private:
  explicit Client(util::Socket socket) : socket_(std::move(socket)) {}

  /// Send one frame, read one frame, unwrap error responses; returns the
  /// payload after checking the response type is `expected`.
  Bytes round_trip(MessageType request_type, std::span<const std::uint8_t> payload,
                   MessageType expected);

  util::Socket socket_;
};

}  // namespace cesm::serve
