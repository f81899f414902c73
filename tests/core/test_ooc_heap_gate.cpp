// A deterministic memory gate for the out-of-core leg. This executable
// replaces the global operator new/delete with counting versions and holds
// the peak live heap of one run_variable_streaming call, above a warm
// baseline, to the working set the variable reserves
// (ooc_working_set_bytes). Unlike the FullGrid peak-RSS readings it does
// not depend on the allocator's arenas, the kernel or the VM, so it runs
// uncapped in every build without sanitizers (their runtimes own operator
// new, so the gate is not built there).
//
// The grid has 5,000 columns and 30 levels: every level boundary of U's
// one-level chunks falls inside a 4096-element kernel block, so the
// verifier's stream staging runs on every chunk. The bias test is on, so
// every member goes through every variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <new>

#include "core/ensemble_cache.h"
#include "core/ooc.h"
#include "util/scheduler.h"

namespace {

std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};

// Each block carries its size just below the pointer, in a header of at
// least one max-aligned slot.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* allocate(std::size_t size, std::size_t align) noexcept {
  const std::size_t header = std::max(align, kHeader);
  void* raw = align > kHeader
                  ? std::aligned_alloc(align, (header + size + align - 1) / align * align)
                  : std::malloc(header + size);
  if (raw == nullptr) return nullptr;
  std::byte* p = static_cast<std::byte*>(raw) + header;
  std::memcpy(p - sizeof size, &size, sizeof size);
  const std::uint64_t live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void deallocate(void* ptr, std::size_t align) noexcept {
  if (ptr == nullptr) return;
  std::byte* p = static_cast<std::byte*>(ptr);
  std::size_t size = 0;
  std::memcpy(&size, p - sizeof size, sizeof size);
  g_live.fetch_sub(size, std::memory_order_relaxed);
  std::free(p - std::max(align, kHeader));
}

void* allocate_or_throw(std::size_t size, std::size_t align) {
  void* p = allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return allocate_or_throw(n, kHeader); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, kHeader); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return allocate(n, kHeader); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, kHeader);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { deallocate(p, kHeader); }
void operator delete[](void* p) noexcept { deallocate(p, kHeader); }
void operator delete(void* p, std::size_t) noexcept { deallocate(p, kHeader); }
void operator delete[](void* p, std::size_t) noexcept { deallocate(p, kHeader); }
void operator delete(void* p, const std::nothrow_t&) noexcept { deallocate(p, kHeader); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { deallocate(p, kHeader); }
void operator delete(void* p, std::align_val_t a) noexcept {
  deallocate(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  deallocate(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  deallocate(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  deallocate(p, static_cast<std::size_t>(a));
}
void operator delete(void* p, std::align_val_t a, const std::nothrow_t&) noexcept {
  deallocate(p, static_cast<std::size_t>(a));
}
void operator delete[](void* p, std::align_val_t a, const std::nothrow_t&) noexcept {
  deallocate(p, static_cast<std::size_t>(a));
}

namespace cesm::core {
namespace {

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / 1048576.0; }

TEST(OocHeapGate, PeakLiveHeapStaysWithinTheWorkingSet) {
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{50, 100, 30};
  spec.members = 21;
  const climate::EnsembleGenerator ensemble(spec);
  OocConfig cfg;
  cfg.chunk_elems = 8192;  // one 5,000-value level per chunk of U
  cfg.spill_dir = ::testing::TempDir();
  ASSERT_TRUE(cfg.suite.run_bias);

  for (const char* name : {"U", "FSDSC"}) {
    const climate::VariableSpec& var = ensemble.variable(name);
    // The generator's synthesizer for `var` is built once and kept for
    // the generator's lifetime, outside every reservation. It is small
    // (the factored basis, 24 x (nlat + nlon) doubles), but it is not part
    // of the run's peak: warm it.
    (void)ensemble.field_elems(var);
    for (const std::size_t workers : {1, 2, 4}) {
      const ScopedScheduler scheduler(workers);
      const std::uint64_t reserved = ooc_working_set_bytes(ensemble, var, cfg.chunk_elems);
      const std::uint64_t base = g_live.load();
      g_peak.store(base);
      (void)run_variable_streaming(ensemble, var, cfg);
      const std::uint64_t peak = g_peak.load() - base;
      std::printf("[heap] %s, %zu workers: peak live heap %.2f MiB, reserved %.2f MiB\n",
                  name, workers, mib(peak), mib(reserved));
      EXPECT_LE(peak, reserved) << name << " at " << workers << " workers";
    }
  }
}

// The generator memoizes one synthesizer per variable for its lifetime,
// outside every reservation, so whatever it keeps per variable accumulates
// across a streamed catalog. It must stay small: the factored basis is
// 24 x (50 + 100) doubles (28.1 KiB) here, where a per-column basis would
// be 24 x 5,000 (0.92 MiB). A cold generator, so every synthesizer is
// built inside the runs. The bound is on the total after all runs: the
// first run in a process also keeps one-time state (the codecs' shared
// tables, per-thread trace buffers) that is not per variable.
TEST(OocHeapGate, StreamedVariablesRetainLittleHeap) {
  constexpr std::uint64_t kPerVariable = 64 << 10;
  EnsembleCache::global().configure(util::CacheConfig{.enabled = false});
  climate::EnsembleSpec spec;
  spec.grid = climate::GridSpec{50, 100, 30};
  spec.members = 11;
  const climate::EnsembleGenerator ensemble(spec);
  OocConfig cfg;
  cfg.chunk_elems = 8192;
  cfg.spill_dir = ::testing::TempDir();
  cfg.suite.run_bias = false;

  const std::uint64_t base = g_live.load();
  const char* const names[] = {"U", "FSDSC", "SST", "Q", "CLOUD"};
  for (const char* name : names) {
    (void)run_variable_streaming(ensemble, ensemble.variable(name), cfg);
    std::printf("[heap] after %s: %.1f KiB kept above the generator's baseline\n", name,
                static_cast<double>(g_live.load() - base) / 1024.0);
  }
  EXPECT_LT(g_live.load() - base, std::size(names) * kPerVariable);
  EnsembleCache::global().configure(util::CacheConfig::from_env());
}

}  // namespace
}  // namespace cesm::core
