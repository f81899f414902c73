#pragma once
// Minimal POSIX socket + length-prefixed frame layer (cesm::util).
//
// The cesmd verification daemon and its clients speak frames, not raw
// bytes: every message on the wire is
//
//   u32 magic "CSMF" | u8 type | u32 payload length | payload bytes
//
// (all little-endian, written with the same ByteWriter the codecs and
// the cache snapshots use). The framing layer is deliberately hostile-
// input-first: a wrong magic or an over-limit declared length throws
// FormatError before a single payload byte is trusted, a connection
// closed cleanly *between* frames reads as end-of-stream (nullopt), and
// a connection dying *inside* a frame throws IoError — three different
// conditions, three different surfaces, so the server can answer each
// with the right typed response instead of crashing or hanging.
//
// Sockets are RAII fds. Unix-domain sockets are the default transport
// (cesmd's socket lives on the filesystem); TCP on loopback is available
// for cross-host setups. All writes use MSG_NOSIGNAL: a vanished client
// must surface as an IoError on the server thread, never as SIGPIPE.
//
// Every frame leaves in ONE gather write (header + payload), and TCP
// sockets — connected or accepted — run with TCP_NODELAY. Together they
// keep a request/response exchange off the write-write-read pattern that
// meets delayed ACK: with Nagle on and the header sent first, the kernel
// holds the payload until the peer ACKs the header, ~40 ms later on
// Linux, in both directions of every request. Unix-domain sockets have
// no Nagle and are left alone.

#include <cstdint>
#include <optional>
#include <string>

#include "util/bytes.h"
#include "util/error.h"

namespace cesm::util {

/// RAII file-descriptor wrapper for sockets.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// shutdown(SHUT_RDWR): unblocks any thread inside recv/send on this
  /// socket (the graceful-drain path). Safe on an already-closed socket.
  void shutdown_both() const;

  void close();

 private:
  int fd_ = -1;
};

/// Bind + listen on a unix-domain socket at `path` (an existing stale
/// socket file is removed first). Throws IoError on failure.
Socket listen_unix(const std::string& path, int backlog = 64);

/// Bind + listen on loopback TCP. `port` 0 picks an ephemeral port;
/// `bound_port` (when non-null) receives the actual port.
Socket listen_tcp(std::uint16_t port, std::uint16_t* bound_port = nullptr,
                  int backlog = 64);

/// Accept one connection (blocking). Returns an invalid Socket when the
/// listener was shut down or the accept was interrupted. An accepted TCP
/// connection comes back with TCP_NODELAY set.
Socket accept_connection(const Socket& listener);

Socket connect_unix(const std::string& path);
/// Connect to an IPv4 `host`; the socket comes back with TCP_NODELAY set.
Socket connect_tcp(const std::string& host, std::uint16_t port);

/// Write all of `data`; throws IoError on a closed/failed peer.
void send_all(const Socket& sock, const std::uint8_t* data, std::size_t n);

/// Read exactly `n` bytes. Returns false on clean EOF *before the first
/// byte*; throws IoError when the stream ends mid-read.
bool recv_exact(const Socket& sock, std::uint8_t* out, std::size_t n);

// --- framing ---------------------------------------------------------------

inline constexpr std::uint32_t kFrameMagic = 0x464D5343;  // "CSMF" little-endian
inline constexpr std::size_t kFrameHeaderBytes = 9;       // magic + type + length

/// Hard ceiling a reader enforces on the declared payload length before
/// allocating anything. Large enough for a full paper-scale
/// VariableResult, small enough that a hostile length cannot OOM the
/// daemon.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

struct Frame {
  std::uint8_t type = 0;
  Bytes payload;
};

/// A frame declared a payload above the reader's limit. Distinct from
/// plain FormatError so a server can answer with its oversized-frame
/// error code instead of the generic malformed-frame one.
class FrameTooLarge : public FormatError {
 public:
  explicit FrameTooLarge(const std::string& what) : FormatError(what) {}
};

/// Serialize and send one frame in a single gather write (partial writes
/// and EINTR are resumed); throws IoError on a closed/failed peer.
void write_frame(const Socket& sock, std::uint8_t type,
                 std::span<const std::uint8_t> payload);

/// Read one frame. nullopt on clean EOF at a frame boundary; FormatError
/// on bad magic or a declared length above `max_payload`; IoError on a
/// connection lost mid-frame.
std::optional<Frame> read_frame(const Socket& sock,
                                std::uint32_t max_payload = kMaxFramePayload);

}  // namespace cesm::util
