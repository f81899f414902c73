#include "util/net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cesm::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

/// Disable Nagle's algorithm. A frame already leaves in one write, so
/// there is nothing for Nagle to coalesce; left on, it holds a reply's
/// tail segment until the peer's delayed ACK (~40 ms on Linux) arrives.
bool set_nodelay(const Socket& sock) {
  const int one = 1;
  return ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) == 0;
}

/// Little-endian store, the byte order ByteWriter::u32 writes.
void store_u32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::shutdown_both() const {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Socket listen_unix(const std::string& path, int backlog) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw IoError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // remove a stale socket file from a prior run
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(" + path + ")");
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen(" + path + ")");
  return sock;
}

Socket listen_tcp(std::uint16_t port, std::uint16_t* bound_port, int backlog) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("bind(tcp:" + std::to_string(port) + ")");
  }
  if (::listen(sock.fd(), backlog) != 0) throw_errno("listen(tcp)");

  if (bound_port != nullptr) {
    sockaddr_in actual = {};
    socklen_t len = sizeof(actual);
    if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
      throw_errno("getsockname");
    }
    *bound_port = ntohs(actual.sin_port);
  }
  return sock;
}

Socket accept_connection(const Socket& listener) {
  sockaddr_storage peer = {};
  socklen_t len = sizeof(peer);
  Socket conn(::accept(listener.fd(), reinterpret_cast<sockaddr*>(&peer), &len));
  // Invalid on error — caller decides retry vs stop.
  if (conn.valid() && peer.ss_family == AF_INET && !set_nodelay(conn)) return Socket();
  return conn;
}

Socket connect_unix(const std::string& path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw IoError("unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_UNIX)");
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("connect(" + path + ")");
  }
  return sock;
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw IoError("invalid IPv4 address: " + host);
  }

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) throw_errno("socket(AF_INET)");
  if (::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    throw_errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  if (!set_nodelay(sock)) throw_errno("setsockopt(TCP_NODELAY)");
  return sock;
}

void send_all(const Socket& sock, const std::uint8_t* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t rc = ::send(sock.fd(), data + sent, n - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    if (rc == 0) throw IoError("send: connection closed");
    sent += static_cast<std::size_t>(rc);
  }
}

bool recv_exact(const Socket& sock, std::uint8_t* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t rc = ::recv(sock.fd(), out + got, n - got, 0);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv");
    }
    if (rc == 0) {
      if (got == 0) return false;  // clean EOF at a message boundary
      throw IoError("recv: connection closed mid-message");
    }
    got += static_cast<std::size_t>(rc);
  }
  return true;
}

void write_frame(const Socket& sock, std::uint8_t type,
                 std::span<const std::uint8_t> payload) {
  std::uint8_t header[kFrameHeaderBytes];
  store_u32(header, kFrameMagic);
  header[4] = type;
  store_u32(header + 5, static_cast<std::uint32_t>(payload.size()));

  // Header and payload go out in one gather write: two send()s would be
  // the write-write-read pattern that stalls on the peer's delayed ACK.
  iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()},
  };
  msghdr msg = {};
  msg.msg_iov = iov;
  msg.msg_iovlen = payload.empty() ? 1 : 2;
  std::size_t left = sizeof(header) + payload.size();
  while (left > 0) {
    const ssize_t rc = ::sendmsg(sock.fd(), &msg, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw_errno("sendmsg");
    }
    if (rc == 0) throw IoError("sendmsg: connection closed");
    // Partial write: skip the iovecs (and the prefix of the current one)
    // that already left.
    auto sent = static_cast<std::size_t>(rc);
    left -= sent;
    while (sent > 0 && sent >= msg.msg_iov->iov_len) {
      sent -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (sent > 0) {
      msg.msg_iov->iov_base = static_cast<std::uint8_t*>(msg.msg_iov->iov_base) + sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
}

std::optional<Frame> read_frame(const Socket& sock, std::uint32_t max_payload) {
  std::uint8_t header[kFrameHeaderBytes];
  if (!recv_exact(sock, header, sizeof(header))) return std::nullopt;

  ByteReader reader(std::span<const std::uint8_t>(header, sizeof(header)));
  const std::uint32_t magic = reader.u32();
  if (magic != kFrameMagic) {
    throw FormatError("bad frame magic");
  }
  Frame frame;
  frame.type = reader.u8();
  const std::uint32_t len = reader.u32();
  // Validate the declared length BEFORE allocating: a hostile 4 GiB
  // length must be rejected as a format error, not attempted.
  if (len > max_payload) {
    throw FrameTooLarge("frame payload exceeds limit (" + std::to_string(len) +
                        " > " + std::to_string(max_payload) + " bytes)");
  }
  frame.payload.resize(len);
  if (len > 0 && !recv_exact(sock, frame.payload.data(), len)) {
    throw IoError("recv: connection closed mid-frame");
  }
  return frame;
}

}  // namespace cesm::util
