#pragma once
// Peak-RSS measurement and a cooperative memory budget (cesm::util).
//
// The out-of-core suite mode promises "bounded memory": that promise is
// only honest if the bound is measured (peak RSS, from the kernel) and
// enforced (a logical budget every streamed variable is admitted against,
// failing fast instead of paging). This header carries both halves:
//
//   * peak_rss_bytes() reads the process high-water mark — VmHWM from
//     /proc/self/status where available, getrusage(ru_maxrss) otherwise —
//     so bench JSON can record `peak_rss_bytes` next to wall times.
//   * reset_peak_rss() asks the kernel to clear the high-water mark
//     (/proc/self/clear_refs). Best-effort: when unsupported the HWM stays
//     monotonic, which only ever over-reports a later phase — gate-safe.
//   * MemoryBudget is the logical admission ledger: a streamed variable
//     reserves its whole working set (core::ooc_working_set_bytes) once,
//     before it stages anything, and releases it when it is done. The
//     cap comes from CESM_MEM_MB (via memory_budget_bytes) or an explicit
//     byte count; a zero cap disables enforcement but keeps the
//     high-water accounting for the mem.* trace counters.
//
// Concurrency: MemoryBudget is thread-safe. reserve() *parks* the caller
// until the requested bytes fit, so several variable pipelines can race
// one shared cap without any of them dying — backpressure instead of
// failure. A reservation larger than the cap itself can never fit and
// throws at once, naming what it was for. Reservations are admitted in
// strict FIFO ticket order, so a large reservation behind a stream of
// small ones is never starved, and because every tenant acquires its
// full working set in one reservation (all-or-nothing, no hold-and-wait),
// admission order cannot deadlock: the head waiter only ever waits on
// releases from tenants that are already fully admitted and running.
//
// Trace counters (enabled runs only): "mem.charged_bytes" accumulates
// admitted reservations, "mem.budget_exceeded" counts reservations larger
// than the cap, "mem.reserve_waits" counts reservations that had to park;
// callers snapshot peak_logical_bytes() for phase breakdowns.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace cesm::util {

/// Process peak resident set size in bytes (VmHWM, falling back to
/// getrusage). Returns 0 when neither source is available.
std::size_t peak_rss_bytes();

/// Reset the kernel's peak-RSS high-water mark so a later phase can be
/// measured independently. Returns true when the kernel accepted the
/// reset; false leaves the (monotonic) HWM untouched.
bool reset_peak_rss();

/// Memory cap from the CESM_MEM_MB environment variable, in bytes.
/// Unset, zero, or malformed (warned by env_u64) -> nullopt (no cap).
std::optional<std::uint64_t> memory_budget_bytes();

/// Logical admission ledger for bounded-memory pipelines. Thread-safe;
/// see the header comment.
class MemoryBudget {
 public:
  /// cap_bytes == 0 means "account but never reject".
  explicit MemoryBudget(std::uint64_t cap_bytes = 0) : cap_(cap_bytes) {}

  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Blocking admission: parks the calling thread until `bytes` fit under
  /// the cap, then records them. Reservations are admitted in FIFO order
  /// (anti-starvation). A reservation larger than the cap itself can never
  /// fit and throws cesm::Error immediately; the message names `what`, its
  /// size and the cap. With no cap this never blocks.
  void reserve(const char* what, std::uint64_t bytes);

  /// Return `bytes` to the budget (clamped at zero, so a mismatched
  /// release can never underflow) and wake any parked reservations.
  void release(std::uint64_t bytes);

  [[nodiscard]] std::uint64_t charged_bytes() const;
  [[nodiscard]] std::uint64_t peak_logical_bytes() const;
  /// Number of reserve() calls that had to park at least once.
  [[nodiscard]] std::uint64_t reserve_waits() const;

 private:
  [[nodiscard]] bool fits_locked(std::uint64_t bytes) const {
    return cap_ == 0 || charged_ + bytes <= cap_;
  }

  const std::uint64_t cap_ = 0;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t charged_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t waits_ = 0;
  std::uint64_t next_ticket_ = 0;     ///< next ticket to hand out
  std::uint64_t serving_ticket_ = 0;  ///< ticket currently allowed to admit
};

/// RAII working-set reservation: reserve() on construction, release() on
/// destruction. The unit of all-or-nothing admission for one streaming
/// variable, against the suite's shared budget or its own.
class MemoryReservation {
 public:
  MemoryReservation(MemoryBudget& budget, const char* what, std::uint64_t bytes)
      : budget_(budget), bytes_(bytes) {
    budget_.reserve(what, bytes_);
  }
  ~MemoryReservation() { budget_.release(bytes_); }

  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }

 private:
  MemoryBudget& budget_;
  std::uint64_t bytes_ = 0;
};

}  // namespace cesm::util
