#include "util/memory.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>

#include "util/env.h"
#include "util/error.h"
#include "util/trace.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace cesm::util {

namespace {

/// Parse a "Vm...:   <kB> kB" line value from /proc/self/status.
std::size_t proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "re");
  if (f == nullptr) return 0;
  char line[256];
  const std::size_t key_len = std::strlen(key);
  std::size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) != 0 || line[key_len] != ':') continue;
    unsigned long long value = 0;
    if (std::sscanf(line + key_len + 1, "%llu", &value) == 1) {
      kb = static_cast<std::size_t>(value);
    }
    break;
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

}  // namespace

std::size_t peak_rss_bytes() {
  if (const std::size_t kb = proc_status_kb("VmHWM"); kb != 0) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0 && ru.ru_maxrss > 0) {
#if defined(__APPLE__)
    return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // kilobytes elsewhere
#endif
  }
#endif
  return 0;
}

bool reset_peak_rss() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/clear_refs", "we");
  if (f == nullptr) return false;
  // "5" resets the peak-RSS watermark (Documentation/admin-guide/mm).
  const bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
#else
  return false;
#endif
}

std::optional<std::uint64_t> memory_budget_bytes() {
  const std::optional<std::uint64_t> mb = env_u64("CESM_MEM_MB");
  if (!mb || *mb == 0) return std::nullopt;
  if (*mb > (std::numeric_limits<std::uint64_t>::max() >> 20)) {
    std::fprintf(stderr, "CESM_MEM_MB ignored: %llu MiB overflows the byte budget\n",
                 static_cast<unsigned long long>(*mb));
    return std::nullopt;
  }
  return *mb << 20;
}

void MemoryBudget::reserve(const char* what, std::uint64_t bytes) {
  std::unique_lock<std::mutex> lock(mu_);
  if (cap_ != 0 && bytes > cap_) {  // can never fit: parking would hang
    trace::add(trace::Counter::kMemBudgetExceeded);
    throw Error("memory budget exceeded: reserving " + std::to_string(bytes) +
                " bytes for " + what + " against a CESM_MEM_MB cap of " +
                std::to_string(cap_) + " bytes");
  }
  const std::uint64_t ticket = next_ticket_++;
  const bool parked = !(serving_ticket_ == ticket && fits_locked(bytes));
  if (parked) {
    ++waits_;
    trace::add(trace::Counter::kMemReserveWaits);
    cv_.wait(lock, [&] { return serving_ticket_ == ticket && fits_locked(bytes); });
  }
  charged_ += bytes;
  peak_ = std::max(peak_, charged_);
  trace::add(trace::Counter::kMemChargedBytes, bytes);
  ++serving_ticket_;
  cv_.notify_all();
}

void MemoryBudget::release(std::uint64_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    charged_ = bytes > charged_ ? 0 : charged_ - bytes;
  }
  cv_.notify_all();
}

std::uint64_t MemoryBudget::charged_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return charged_;
}

std::uint64_t MemoryBudget::peak_logical_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

std::uint64_t MemoryBudget::reserve_waits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waits_;
}

}  // namespace cesm::util
