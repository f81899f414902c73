// Socket + frame layer: the three hostile-input surfaces.
//
// read_frame's contract distinguishes clean EOF at a boundary (nullopt),
// malformed framing (FormatError before any payload allocation), and a
// peer dying mid-frame (IoError). The cesmd server maps each to a
// different response, so the distinction itself is under test here, on
// loopback socketpairs with hand-built byte sequences. The write side is
// pinned too: one gather write per frame that survives partial writes,
// and TCP sockets that never wait out a delayed ACK.

#include "util/net.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <optional>
#include <thread>

#include "util/bytes.h"

namespace cesm::util {
namespace {

/// A connected unix-domain socket pair.
struct Pair {
  Socket a, b;
  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = Socket(fds[0]);
    b = Socket(fds[1]);
  }
};

Bytes frame_bytes(std::uint32_t magic, std::uint8_t type, std::uint32_t declared_len,
                  const Bytes& payload) {
  Bytes out;
  ByteWriter w(out);
  w.u32(magic);
  w.u8(type);
  w.u32(declared_len);
  w.raw(payload.data(), payload.size());
  return out;
}

TEST(Frame, RoundTripsTypeAndPayload) {
  Pair p;
  const Bytes payload = {1, 2, 3, 250, 251, 252};
  write_frame(p.a, 7, payload);
  const auto frame = read_frame(p.b);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 7);
  EXPECT_EQ(frame->payload, payload);
}

TEST(Frame, EmptyPayloadIsLegal) {
  Pair p;
  write_frame(p.a, 1, {});
  const auto frame = read_frame(p.b);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 1);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Frame, CleanEofAtBoundaryIsEndOfStream) {
  Pair p;
  write_frame(p.a, 3, Bytes{9});
  p.a.close();
  EXPECT_TRUE(read_frame(p.b).has_value());   // the queued frame drains
  EXPECT_FALSE(read_frame(p.b).has_value());  // then clean EOF
}

TEST(Frame, BadMagicIsFormatError) {
  Pair p;
  const Bytes bytes = frame_bytes(0xDEADBEEF, 1, 0, {});
  send_all(p.a, bytes.data(), bytes.size());
  EXPECT_THROW((void)read_frame(p.b), FormatError);
}

TEST(Frame, OversizedDeclaredLengthIsRejectedBeforeAllocation) {
  Pair p;
  // Declares 4 GiB-ish; only the header is ever sent. The reader must
  // throw from the length check, not sit waiting for a payload (or try
  // to allocate one).
  const Bytes bytes = frame_bytes(kFrameMagic, 1, 0xFFFFFFF0u, {});
  send_all(p.a, bytes.data(), bytes.size());
  EXPECT_THROW((void)read_frame(p.b), FrameTooLarge);
}

TEST(Frame, CustomLimitIsEnforced) {
  Pair p;
  write_frame(p.a, 1, Bytes(64, 0xAB));
  EXPECT_THROW((void)read_frame(p.b, 16), FrameTooLarge);
}

TEST(Frame, TruncatedHeaderIsIoError) {
  Pair p;
  const Bytes partial = {0x43, 0x53, 0x4D};  // 3 of 9 header bytes
  send_all(p.a, partial.data(), partial.size());
  p.a.close();
  EXPECT_THROW((void)read_frame(p.b), IoError);
}

TEST(Frame, TruncatedPayloadIsIoError) {
  Pair p;
  // Declares 8 payload bytes, delivers 2, then disconnects mid-frame.
  const Bytes bytes = frame_bytes(kFrameMagic, 1, 8, {0xAA, 0xBB});
  send_all(p.a, bytes.data(), bytes.size());
  p.a.close();
  EXPECT_THROW((void)read_frame(p.b), IoError);
}

TEST(Frame, SendToClosedPeerIsIoErrorNotSigpipe) {
  Pair p;
  p.b.close();
  const Bytes big(1 << 16, 0x55);
  // MSG_NOSIGNAL: the dead peer surfaces as an exception on this thread,
  // never as a process-killing SIGPIPE.
  EXPECT_THROW(
      {
        for (int i = 0; i < 64; ++i) send_all(p.a, big.data(), big.size());
      },
      IoError);
}

TEST(Frame, WriteFrameToClosedPeerIsIoErrorNotSigpipe) {
  Pair p;
  p.b.close();
  // write_frame has its own gather-write loop (it does not go through
  // send_all), so it needs its own MSG_NOSIGNAL check.
  EXPECT_THROW(write_frame(p.a, 1, Bytes(1 << 16, 0x55)), IoError);
  EXPECT_THROW(write_frame(p.a, 1, {}), IoError);
}

void ignore_signal(int) {}

TEST(Frame, LargeFrameSurvivesPartialWritesAndEintr) {
  // A blocking sendmsg only returns short when a signal interrupts it
  // after some bytes left. The reader drains 16 MiB in 256 KiB steps and
  // signals the writer (handler without SA_RESTART) before each step, so
  // the gather write is cut mid-iovec, and fails with EINTR, many times.
  struct sigaction sa = {};
  sa.sa_handler = ignore_signal;
  struct sigaction saved = {};
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, &saved), 0);

  Pair p;
  Bytes payload(16u << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>((i * 2654435761u) >> 13);
  }
  const Bytes expected = frame_bytes(kFrameMagic, 9,
                                     static_cast<std::uint32_t>(payload.size()), payload);
  const pthread_t writer = ::pthread_self();
  Bytes wire(expected.size());
  std::thread reader([&] {
    constexpr std::size_t kStep = 256u << 10;
    try {
      for (std::size_t at = 0; at < wire.size(); at += kStep) {
        // The first signal cuts a write in progress short; the second
        // finds the retried write blocked before it sent anything (EINTR).
        ::pthread_kill(writer, SIGUSR1);
        std::this_thread::sleep_for(std::chrono::microseconds(500));
        ::pthread_kill(writer, SIGUSR1);
        if (!recv_exact(p.b, wire.data() + at, std::min(kStep, wire.size() - at))) return;
      }
    } catch (const IoError&) {
      // The writer failed and closed its end; `wire` stays short.
    }
  });
  EXPECT_NO_THROW(write_frame(p.a, 9, payload));
  p.a.close();
  reader.join();
  ::sigaction(SIGUSR1, &saved, nullptr);
  EXPECT_TRUE(wire == expected);
}

/// A loopback TCP pair: `client` from connect_tcp, `server` from
/// accept_connection on an ephemeral listener.
struct TcpPair {
  Socket client, server;
  TcpPair() {
    std::uint16_t port = 0;
    Socket listener = listen_tcp(0, &port);
    client = connect_tcp("127.0.0.1", port);
    server = accept_connection(listener);
    EXPECT_TRUE(server.valid());
  }
};

TEST(Net, TcpHeaderOnlyFrameRoundTrips) {
  TcpPair t;
  write_frame(t.client, 4, {});
  const auto frame = read_frame(t.server);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 4);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(Net, TcpSocketsDisableNagle) {
  TcpPair t;
  for (const Socket* s : {&t.client, &t.server}) {
    int flag = 0;
    socklen_t len = sizeof(flag);
    ASSERT_EQ(::getsockopt(s->fd(), IPPROTO_TCP, TCP_NODELAY, &flag, &len), 0);
    EXPECT_EQ(flag, 1);
  }
}

TEST(Net, TcpFrameEchoHasNoAckStall) {
  TcpPair t;
  std::thread echo([&] {
    while (const auto frame = read_frame(t.server)) {
      write_frame(t.server, frame->type, frame->payload);
    }
  });
  const Bytes payload(1024, 0x5A);
  bool echoed = true;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 50 && echoed; ++i) {
    write_frame(t.client, 2, payload);
    const auto reply = read_frame(t.client);
    echoed = reply.has_value() && reply->payload == payload;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  t.client.shutdown_both();  // the echo thread reads EOF and exits
  echo.join();
  EXPECT_TRUE(echoed);
  // A header-then-payload write pair with Nagle on waits out a delayed
  // ACK (~40 ms) in each direction: ~4 s for 50 round trips. Without the
  // stall this is milliseconds, so 1 s leaves headroom for sanitizers.
  EXPECT_LT(seconds, 1.0);
}

TEST(Net, TcpListenerReportsEphemeralPortAndAccepts) {
  std::uint16_t port = 0;
  Socket listener = listen_tcp(0, &port);
  ASSERT_GT(port, 0);

  std::thread server([&] {
    Socket conn = accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    const auto frame = read_frame(conn);
    ASSERT_TRUE(frame.has_value());
    write_frame(conn, frame->type + 1, frame->payload);
  });

  Socket client = connect_tcp("127.0.0.1", port);
  write_frame(client, 10, Bytes{42});
  const auto reply = read_frame(client);
  server.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, 11);
  EXPECT_EQ(reply->payload, Bytes{42});
}

TEST(Net, UnixListenerAcceptsOnFilesystemPath) {
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "cesm_test_net.sock").string();
  Socket listener = listen_unix(path);

  std::thread server([&] {
    Socket conn = accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    const auto frame = read_frame(conn);
    ASSERT_TRUE(frame.has_value());
    write_frame(conn, frame->type, frame->payload);
  });

  Socket client = connect_unix(path);
  write_frame(client, 5, Bytes{1, 2, 3});
  const auto reply = read_frame(client);
  server.join();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->payload, (Bytes{1, 2, 3}));
  listener.close();
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace cesm::util
