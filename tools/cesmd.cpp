// cesmd — the verification-as-a-service daemon.
//
// Stands the §4 methodology up as a long-lived server: clients submit
// (ensemble spec, variable, suite options) requests over the cesm::serve
// wire protocol and receive the exact bytes an in-process run_suite
// would serialize. See docs/serving.md for the protocol, coalescing and
// admission-control semantics; bench/bench_serving.cpp is the reference
// client.
//
// Usage:
//   cesmd --socket=/tmp/cesmd.sock [--max-inflight=N]
//   cesmd --port=0 [--max-inflight=N]     (0 = ephemeral; bound port is
//                                          printed on stdout)
//
// Lifecycle: on SIGINT/SIGTERM the daemon drains — stops accepting,
// finishes every in-flight request and its response write, then exits
// 128+signum. A second signal kills it the conventional way.

#include <poll.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/server.h"
#include "util/env.h"
#include "util/error.h"
#include "util/signals.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket=PATH | --port=N) [--max-inflight=N]\n"
               "  --socket=PATH      listen on a unix-domain socket\n"
               "  --port=N           listen on loopback TCP (0 = ephemeral)\n"
               "  --max-inflight=N   concurrent computations admitted (default 8)\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  cesm::serve::ServerConfig config;
  bool have_transport = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--socket=", 0) == 0) {
      config.unix_path = arg.substr(9);
      have_transport = !config.unix_path.empty();
    } else if (arg.rfind("--port=", 0) == 0) {
      const auto port = cesm::util::parse_u64_arg(arg.c_str() + 7);
      if (!port || *port > 65535) {
        std::fprintf(stderr, "cesmd: bad --port value: %s\n", arg.c_str() + 7);
        return 2;
      }
      config.tcp_port = static_cast<std::uint16_t>(*port);
      have_transport = true;
    } else if (arg.rfind("--max-inflight=", 0) == 0) {
      const auto n = cesm::util::parse_u64_arg(arg.c_str() + 15);
      if (!n) {
        std::fprintf(stderr, "cesmd: bad --max-inflight value: %s\n", arg.c_str() + 15);
        return 2;
      }
      config.max_inflight = static_cast<std::size_t>(*n);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "cesmd: unknown argument: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (!have_transport) {
    usage(argv[0]);
    return 2;
  }

  cesm::util::install_signal_drain();

  try {
    cesm::serve::Server server(config);
    server.start();
    if (!config.unix_path.empty()) {
      std::printf("cesmd listening on unix:%s\n", config.unix_path.c_str());
    } else {
      // The bench/CI parse this line for the ephemeral port.
      std::printf("cesmd listening on tcp:127.0.0.1:%u\n",
                  static_cast<unsigned>(server.port()));
    }
    std::fflush(stdout);

    // Park until a drained signal arrives; the self-pipe makes a signal
    // delivered to any thread observable here.
    pollfd pfd = {cesm::util::interrupt_fd(), POLLIN, 0};
    while (!cesm::util::interrupt_requested()) {
      ::poll(&pfd, 1, 1000);
    }
    std::fprintf(stderr, "cesmd: draining on signal %d\n",
                 cesm::util::interrupt_signal());
    server.stop();
    return cesm::util::interrupt_exit_code();
  } catch (const cesm::Error& e) {
    std::fprintf(stderr, "cesmd: %s\n", e.what());
    return 1;
  }
}
