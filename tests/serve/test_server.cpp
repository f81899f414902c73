// cesmd server: the acceptance surface of the serving tier.
//
// Three load-bearing guarantees from ISSUE 7, each pinned here:
//   1. Parity — a response's bytes equal serialize_variable_result of an
//      in-process run_suite for the same request, under >= 8 concurrent
//      clients (memcmp, not tolerance).
//   2. Single-flight — concurrent requests sharing a coalescing key run
//      exactly ONE suite computation; observed via the
//      ensemble.synthesize span count with the EnsembleCache disabled
//      (the cache permits concurrent duplicate builds; only the server's
//      single-flight prevents them).
//   3. Typed protocol hostility — malformed, oversized, truncated and
//      version-skewed frames each produce their distinct error code, and
//      none of them harm other connections or the daemon itself.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "climate/ensemble.h"
#include "core/ensemble_cache.h"
#include "core/suite.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "util/bytes.h"
#include "util/net.h"
#include "util/trace.h"

namespace cesm::serve {
namespace {

climate::EnsembleSpec tiny_spec(std::uint64_t seed_salt = 0) {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{12, 18, 3};
  spec.members = 9;
  spec.latent.k = 48;
  spec.latent.spinup_steps = 200;
  spec.latent.average_steps = 400;
  spec.latent.seed ^= seed_salt;
  return spec;
}

core::SuiteConfig fast_config() {
  core::SuiteConfig cfg;
  cfg.test_member_count = 2;
  cfg.grib_max_extra_digits = 3;
  cfg.run_bias = false;
  return cfg;
}

VerifyRequest tiny_request(const std::string& variable,
                           std::uint64_t seed_salt = 0) {
  VerifyRequest request;
  request.ensemble = tiny_spec(seed_salt);
  request.variable = variable;
  request.config = fast_config();
  return request;
}

/// A server bound to an ephemeral loopback port, stopped on destruction.
struct TcpServer {
  Server server;
  explicit TcpServer(ServerConfig cfg = {}) : server(std::move(cfg)) {
    server.start();
  }
  ~TcpServer() { server.stop(); }
  [[nodiscard]] Client client() const {
    return Client::connect_tcp("127.0.0.1", server.port());
  }
};

/// The bytes an in-process caller would compute for `request`: run_suite
/// on a locally constructed generator, filtered, canonically serialized.
Bytes local_expected(const VerifyRequest& request) {
  const climate::EnsembleGenerator ensemble(request.ensemble);
  const core::SuiteResults results =
      core::run_suite(ensemble, request.config, {request.variable});
  return serialize_variable_result(
      filter_result(results.variables.at(0), request.variants));
}

using Counts = std::map<std::string, std::uint64_t>;

/// `name`'s growth from `before` to `after`. The serve.* counts are rows
/// of the process-wide trace counter table, shared by every server (and
/// test) in the process, so tests assert deltas.
std::uint64_t delta(const Counts& after, const Counts& before, const char* name) {
  return after.at(name) - before.at(name);
}

TEST(Serve, PingAndStats) {
  const Counts before = trace::counters();
  TcpServer s;
  Client client = s.client();
  client.ping();
  client.ping();
  const Counts stats = client.stats();
  EXPECT_EQ(delta(stats, before, "serve.pings"), 2u);
  EXPECT_EQ(delta(stats, before, "serve.connections"), 1u);
  EXPECT_EQ(delta(stats, before, "serve.flights"), 0u);
}

TEST(Serve, StatsCarryTheWholeCounterTable) {
  TcpServer s;
  Client client = s.client();
  (void)client.verify_raw(tiny_request("U"));
  const Counts stats = client.stats();
  for (const auto& [name, value] : trace::counters()) EXPECT_EQ(stats.count(name), 1u) << name;
  for (const char* q : {"serve.request_us_p50", "serve.request_us_p99", "serve.request_us_max"}) {
    EXPECT_EQ(stats.count(q), 1u) << q;
  }
  EXPECT_EQ(stats.size(), trace::kCounterCount + 3);
  EXPECT_GT(stats.at("codec.encode_calls"), 0u);
}

TEST(Serve, StatsReportRequestLatencyQuantiles) {
  TcpServer s;
  Client client = s.client();
  EXPECT_EQ(client.stats().at("serve.request_us_max"), 0u);  // nothing timed yet
  for (int i = 0; i < 3; ++i) (void)client.verify_raw(tiny_request("U"));
  // Same connection: the stats request is read only after each verify
  // request's handler returned, so all three are in the histogram.
  const auto stats = client.stats();
  const std::uint64_t p50 = stats.at("serve.request_us_p50");
  const std::uint64_t p99 = stats.at("serve.request_us_p99");
  const std::uint64_t max = stats.at("serve.request_us_max");
  EXPECT_GT(p50, 0u);
  EXPECT_LE(p50, p99);
  EXPECT_LE(p99, max);
}

TEST(Serve, EightConcurrentClientsGetBitIdenticalResults) {
  TcpServer s;
  // Mixed workload: two distinct computations (different variables), one
  // of them additionally requested with a variant filter — exercising
  // coalescing, the shared generator map, and respond-time filtering at
  // once. Every response must memcmp-equal the local serialization.
  std::vector<VerifyRequest> requests;
  for (int i = 0; i < 8; ++i) {
    VerifyRequest request = tiny_request(i % 2 == 0 ? "U" : "FSDSC");
    if (i >= 6) request.variants = {"GRIB2", "fpzip-24"};
    requests.push_back(std::move(request));
  }

  std::vector<Bytes> responses(requests.size());
  std::vector<std::string> errors(requests.size());
  std::vector<std::thread> threads;
  threads.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        Client client = s.client();
        responses[i] = client.verify_raw(requests[i]);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      } catch (...) {
        errors[i] = "non-std exception";
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    ASSERT_TRUE(errors[i].empty()) << "client " << i << ": " << errors[i];
  }

  const Bytes expected_u = local_expected(requests[0]);
  const Bytes expected_fsdsc = local_expected(requests[1]);
  const Bytes expected_filtered_u = local_expected(requests[6]);
  const Bytes expected_filtered_fsdsc = local_expected(requests[7]);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Bytes& expected = i >= 6 ? (i % 2 == 0 ? expected_filtered_u
                                                 : expected_filtered_fsdsc)
                                   : (i % 2 == 0 ? expected_u : expected_fsdsc);
    ASSERT_EQ(responses[i].size(), expected.size()) << "client " << i;
    EXPECT_EQ(std::memcmp(responses[i].data(), expected.data(), expected.size()),
              0)
        << "client " << i << ": response bytes differ from in-process run_suite";
  }

  // The filtered responses really are filtered (2 verdicts, not 9),
  // in request order (GRIB2 first, unlike the suite's native order).
  const core::VariableResult filtered = parse_variable_result(responses[6]);
  ASSERT_EQ(filtered.verdicts.size(), 2u);
  EXPECT_EQ(filtered.verdicts[0].codec, "GRIB2");
  EXPECT_EQ(filtered.verdicts[1].codec, "fpzip-24");
}

TEST(Serve, ConcurrentSameKeyRequestsRunExactlyOneSynthesis) {
  // Disable the ensemble cache so every run_suite would synthesize: any
  // duplicate computation becomes a second ensemble.synthesize span.
  util::CacheConfig disabled;
  disabled.enabled = false;
  core::EnsembleCache::global().configure(disabled);

  // Baseline: spans one in-process run of this request emits. A fresh
  // seed salt keeps the server's generator map and any warm state of
  // earlier tests out of the measurement.
  const VerifyRequest request = tiny_request("CCN3", /*seed_salt=*/0x5EED);
  trace::reset();
  trace::set_enabled(true);
  const Bytes expected = local_expected(request);
  const auto baseline = trace::aggregate_by_label()["ensemble.synthesize"].count;
  ASSERT_GE(baseline, 1u);

  TcpServer s;
  trace::reset();
  const Counts before = trace::counters();
  std::vector<Bytes> responses(8);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (std::size_t i = 0; i < responses.size(); ++i) {
    threads.emplace_back([&, i] {
      try {
        Client client = s.client();
        responses[i] = client.verify_raw(request);
      } catch (...) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  trace::set_enabled(false);
  core::EnsembleCache::global().configure(util::CacheConfig::from_env());

  ASSERT_EQ(failures.load(), 0);
  for (const Bytes& response : responses) {
    ASSERT_EQ(response.size(), expected.size());
    EXPECT_EQ(std::memcmp(response.data(), expected.data(), expected.size()), 0);
  }
  // Exactly one flight's worth of synthesis for all eight clients.
  const auto synth = trace::aggregate_by_label()["ensemble.synthesize"].count;
  EXPECT_EQ(synth, baseline)
      << "coalescing failed: " << synth << " syntheses for 8 same-key requests"
      << " (one in-process run does " << baseline << ")";

  const Counts stats = s.client().stats();
  EXPECT_EQ(delta(stats, before, "serve.flights") + delta(stats, before, "serve.coalesced_joins"),
            8u);
  EXPECT_GE(delta(stats, before, "serve.coalesced_joins"), 1u)
      << "no request ever joined an in-flight computation";
}

TEST(Serve, ZeroInflightBudgetRejectsWithQueueFull) {
  ServerConfig cfg;
  cfg.max_inflight = 0;  // admission control rejects every new flight
  const Counts before = trace::counters();
  TcpServer s(cfg);
  Client client = s.client();
  try {
    (void)client.verify(tiny_request("U"));
    FAIL() << "expected RemoteError(kQueueFull)";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kQueueFull);
  }
  // The rejection is an answer, not a failure: the connection still works.
  client.ping();
  EXPECT_EQ(delta(s.client().stats(), before, "serve.rejected_queue_full"), 1u);
}

TEST(Serve, UnknownVariantIsBadRequest) {
  TcpServer s;
  Client client = s.client();
  VerifyRequest request = tiny_request("U");
  request.variants = {"no-such-codec"};
  try {
    (void)client.verify(request);
    FAIL() << "expected RemoteError(kBadRequest)";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

TEST(Serve, UnknownVariableIsBadRequest) {
  TcpServer s;
  Client client = s.client();
  try {
    (void)client.verify(tiny_request("NO_SUCH_VARIABLE"));
    FAIL() << "expected RemoteError(kBadRequest)";
  } catch (const RemoteError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadRequest);
  }
}

TEST(Serve, BadGribTuningConfigIsBadRequest) {
  // The wire carries both GRIB2 tuning fields as raw i32s.
  TcpServer s;
  Client client = s.client();
  for (const auto& [extra, digits] : {std::pair{-1, 4}, std::pair{2, 0}, std::pair{2, 13}}) {
    VerifyRequest request = tiny_request("U");
    request.config.grib_max_extra_digits = extra;
    request.config.grib_significant_digits = digits;
    try {
      (void)client.verify(request);
      ADD_FAILURE() << "expected RemoteError(kBadRequest) for extra " << extra << ", digits "
                    << digits;
    } catch (const RemoteError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadRequest) << e.what();
    }
  }
  client.ping();  // a bad request is an answer: the connection still works
}

// --- protocol hostility, straight onto the socket ---------------------------

ErrorInfo read_error_frame(const util::Socket& sock) {
  const auto frame = util::read_frame(sock);
  EXPECT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, static_cast<std::uint8_t>(MessageType::kErrorResponse));
  return parse_error(frame->payload);
}

TEST(Serve, BadMagicGetsMalformedFrameThenDisconnect) {
  TcpServer s;
  util::Socket sock = util::connect_tcp("127.0.0.1", s.server.port());
  const Bytes junk = {0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x00, 0x00, 0x00, 0x00};
  util::send_all(sock, junk.data(), junk.size());
  EXPECT_EQ(read_error_frame(sock).code, ErrorCode::kMalformedFrame);
  // Framing is unrecoverable — the server closes after answering.
  EXPECT_FALSE(util::read_frame(sock).has_value());
}

TEST(Serve, OversizedDeclaredPayloadGetsTypedReject) {
  ServerConfig cfg;
  cfg.max_frame_bytes = 1024;
  TcpServer s(cfg);
  util::Socket sock = util::connect_tcp("127.0.0.1", s.server.port());
  Bytes header;
  {
    ByteWriter w(header);
    w.u32(util::kFrameMagic);
    w.u8(static_cast<std::uint8_t>(MessageType::kVerifyRequest));
    w.u32(4096);  // over the 1 KiB server limit; payload never sent
  }
  util::send_all(sock, header.data(), header.size());
  EXPECT_EQ(read_error_frame(sock).code, ErrorCode::kOversizedFrame);
  EXPECT_FALSE(util::read_frame(sock).has_value());
}

TEST(Serve, UnknownMessageTypeKeepsConnectionAlive) {
  TcpServer s;
  util::Socket sock = util::connect_tcp("127.0.0.1", s.server.port());
  util::write_frame(sock, 99, Bytes{1, 2, 3});
  EXPECT_EQ(read_error_frame(sock).code, ErrorCode::kUnsupportedType);
  // A well-formed frame of unknown type is answerable — the stream is
  // still in sync, so the connection survives and serves a ping.
  util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kPing), {});
  const auto pong = util::read_frame(sock);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->type, static_cast<std::uint8_t>(MessageType::kPong));
}

TEST(Serve, WrongProtocolVersionIsTypedReject) {
  TcpServer s;
  util::Socket sock = util::connect_tcp("127.0.0.1", s.server.port());
  Bytes payload = serialize_verify_request(tiny_request("U"));
  payload[0] = static_cast<std::uint8_t>(kProtocolVersion + 1);
  util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kVerifyRequest),
                    payload);
  EXPECT_EQ(read_error_frame(sock).code, ErrorCode::kUnsupportedVersion);
}

TEST(Serve, TruncatedRequestPayloadIsMalformed) {
  TcpServer s;
  util::Socket sock = util::connect_tcp("127.0.0.1", s.server.port());
  Bytes payload = serialize_verify_request(tiny_request("U"));
  payload.resize(payload.size() / 2);  // well-framed, half a request inside
  util::write_frame(sock, static_cast<std::uint8_t>(MessageType::kVerifyRequest),
                    payload);
  EXPECT_EQ(read_error_frame(sock).code, ErrorCode::kMalformedFrame);
}

TEST(Serve, MidFrameDisconnectDoesNotHarmTheDaemon) {
  const Counts before = trace::counters();
  TcpServer s;
  {
    util::Socket sock = util::connect_tcp("127.0.0.1", s.server.port());
    Bytes header;
    ByteWriter w(header);
    w.u32(util::kFrameMagic);
    w.u8(static_cast<std::uint8_t>(MessageType::kVerifyRequest));
    w.u32(64);  // promise 64 payload bytes...
    util::send_all(sock, header.data(), header.size());
    // ...deliver 3, vanish.
    const Bytes partial = {0x01, 0x02, 0x03};
    util::send_all(sock, partial.data(), partial.size());
  }
  // The daemon shrugs: a fresh connection is served normally.
  Client client = s.client();
  client.ping();
  EXPECT_GE(delta(client.stats(), before, "serve.connections"), 2u);
}

TEST(Serve, UnixSocketServesAndStopUnlinksThePath) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cesm_test_server.sock")
          .string();
  ServerConfig cfg;
  cfg.unix_path = path;
  Server server(cfg);
  server.start();
  ASSERT_TRUE(std::filesystem::exists(path));
  Client client = Client::connect_unix(path);
  client.ping();
  server.stop();
  EXPECT_FALSE(std::filesystem::exists(path))
      << "stop() must unlink the unix socket for clean restarts";
}

TEST(Serve, StopIsIdempotentAndRefusesNewConnections) {
  ServerConfig cfg;
  TcpServer s(cfg);
  const std::uint16_t port = s.server.port();
  s.client().ping();
  s.server.stop();
  s.server.stop();  // second stop is a no-op
  EXPECT_THROW((void)Client::connect_tcp("127.0.0.1", port), IoError);
}

}  // namespace
}  // namespace cesm::serve
