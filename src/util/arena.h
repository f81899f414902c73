#pragma once
// Reusable scratch buffers for steady-state hot loops.
//
// The PVT verify loop runs the same (variable, codec) evaluation shape
// thousands of times per suite sweep; per-iteration heap churn for masks,
// score vectors and staging buffers is pure overhead and fragments the
// allocator under the variable-level parallel_for. A ScratchArena owns a
// set of named slots that grow to their high-water mark once and are then
// reused allocation-free.
//
// Growth is observable: every slot grow adds to the cesm::trace counters
// "arena.grow" (events) and "arena.grow_bytes", which are always on.
// The steady-state zero-allocation property is asserted mechanically in
// tests/core/test_pvt.cpp: warm one verify pass, reset the counters, run
// another, require arena.grow == 0.
//
// Not thread-safe: one arena belongs to one owner (spans it hands out may
// be *filled* by parallel workers at disjoint indices, but get() itself
// must stay on the owning thread). Spans are invalidated by the next
// get() on the same slot.

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "util/trace.h"

namespace cesm::util {

class ScratchArena {
 public:
  /// Span of `n` value-initialized-free Ts backed by slot `slot`. Contents
  /// are unspecified (reused bytes); callers must write before reading.
  /// Grows the slot only when its current capacity is insufficient.
  template <typename T>
  std::span<T> get(std::size_t slot, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                  "ScratchArena hands out raw storage");
    if (slot >= slots_.size()) slots_.resize(slot + 1);
    std::vector<unsigned char>& s = slots_[slot];
    const std::size_t need = n * sizeof(T);
    if (s.size() < need) {
      trace::add(trace::Counter::kArenaGrow);
      trace::add(trace::Counter::kArenaGrowBytes, need - s.size());
      // Geometric growth so a slowly-ramping caller settles after O(log)
      // grows instead of reallocating every iteration.
      s.resize(std::max(need, s.size() * 2));
    }
    // vector<unsigned char> storage comes from operator new and is aligned
    // for every fundamental type the arena hands out.
    return {reinterpret_cast<T*>(s.data()), n};
  }

  /// Total bytes currently reserved across all slots.
  [[nodiscard]] std::size_t reserved_bytes() const {
    std::size_t total = 0;
    for (const auto& s : slots_) total += s.size();
    return total;
  }

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Release all storage (the next get() on any slot grows again).
  void release() {
    slots_.clear();
    slots_.shrink_to_fit();
  }

 private:
  std::vector<std::vector<unsigned char>> slots_;
};

}  // namespace cesm::util
