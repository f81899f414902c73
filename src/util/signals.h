#pragma once
// Cooperative SIGINT/SIGTERM drain (cesm::util).
//
// No binary in the tree used to install any signal handler, so Ctrl-C
// mid-run could kill a process between the open() and the final write()
// of a suite CSV or bench JSON, leaving a half-written file behind. This
// helper gives every long-running binary (cesmd, cesmtool, bench_serving)
// the same drain discipline the DiskCache already applies to its entries:
//
//   * install_signal_drain() registers an async-signal-safe handler for
//     SIGINT and SIGTERM that records the signal and writes one byte to a
//     self-pipe — it never exits the process itself;
//   * code checks interrupt_requested() at its natural boundaries
//     (between variables, between bench phases, between requests) and
//     finishes the write in flight — writes themselves go through
//     temp+rename, so there is no window where a reader or a second
//     signal can observe a torn file;
//   * poll/select loops (the cesmd accept loop) add interrupt_fd() to
//     their fd set so a signal delivered to any thread wakes them;
//   * a SECOND signal restores the default disposition and re-raises, so
//     a wedged process still dies to a double Ctrl-C.

namespace cesm::util {

/// Install the SIGINT/SIGTERM drain handler. Idempotent; thread-safe.
/// SIGPIPE is set to ignore at the same time (a disconnecting socket
/// client must surface as a write error, not a process kill).
void install_signal_drain();

/// True once a drained signal has been received.
bool interrupt_requested();

/// The signal number recorded by the handler (0 when none yet).
int interrupt_signal();

/// Read end of the self-pipe: becomes readable when a signal arrives.
/// Valid (>= 0) only after install_signal_drain(). Never read it empty —
/// poll it and consult interrupt_requested().
int interrupt_fd();

/// Conventional exit code for a run that drained `sig` (128 + signum).
int interrupt_exit_code();

/// Test hook: forget a recorded signal so scenarios stay independent.
void clear_interrupt_for_tests();

}  // namespace cesm::util
