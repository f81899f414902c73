#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "util/trace.h"

namespace cesm::util {
namespace {

std::uint64_t grow_count() { return trace::counters().at("arena.grow"); }

TEST(ScratchArena, FirstGetGrowsThenSteadyStateIsAllocationFree) {
  ScratchArena arena;
  trace::reset();

  auto s1 = arena.get<double>(0, 1000);
  EXPECT_EQ(s1.size(), 1000u);
  EXPECT_EQ(grow_count(), 1u);

  // Same slot, same or smaller size: no growth, storage reused.
  trace::reset();
  for (int i = 0; i < 100; ++i) {
    auto s = arena.get<double>(0, 1000);
    EXPECT_EQ(s.size(), 1000u);
    auto smaller = arena.get<double>(0, 10);
    EXPECT_EQ(smaller.size(), 10u);
  }
  EXPECT_EQ(grow_count(), 0u);
}

TEST(ScratchArena, SlotsAreIndependent) {
  ScratchArena arena;
  auto a = arena.get<double>(0, 64);
  auto b = arena.get<std::uint32_t>(1, 64);
  EXPECT_EQ(arena.slot_count(), 2u);

  // Writes through one slot must not disturb the other (distinct storage).
  std::iota(a.begin(), a.end(), 0.0);
  for (auto& v : b) v = 0xDEADBEEF;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], static_cast<double>(i));
  }
}

TEST(ScratchArena, GrowthIsGeometric) {
  ScratchArena arena;
  trace::reset();

  arena.get<double>(0, 100);
  const std::size_t after_first = arena.reserved_bytes();
  EXPECT_EQ(after_first, 100 * sizeof(double));

  // A bump to 101 doubles reserves 2x, so the next several bumps are free.
  arena.get<double>(0, 101);
  EXPECT_EQ(arena.reserved_bytes(), 200 * sizeof(double));
  trace::reset();
  arena.get<double>(0, 150);
  arena.get<double>(0, 200);
  EXPECT_EQ(grow_count(), 0u);
}

TEST(ScratchArena, GrowBytesCounterTracksDeficit) {
  ScratchArena arena;
  trace::reset();

  arena.get<std::uint8_t>(0, 1024);
  const auto counters = trace::counters();
  EXPECT_EQ(counters.at("arena.grow"), 1u);
  EXPECT_EQ(counters.at("arena.grow_bytes"), 1024u);
}

TEST(ScratchArena, ReleaseDropsStorage) {
  ScratchArena arena;
  arena.get<double>(0, 4096);
  EXPECT_GT(arena.reserved_bytes(), 0u);
  arena.release();
  EXPECT_EQ(arena.reserved_bytes(), 0u);
  EXPECT_EQ(arena.slot_count(), 0u);

  trace::reset();
  arena.get<double>(0, 4096);  // grows again after release
  EXPECT_EQ(grow_count(), 1u);
}

TEST(ScratchArena, UntracedGrowthIsCounted) {
  // Counters are always on: growth counts with spans disabled too.
  ASSERT_FALSE(trace::enabled());
  trace::reset();
  ScratchArena arena;
  arena.get<double>(0, 512);
  EXPECT_EQ(grow_count(), 1u);
}

}  // namespace
}  // namespace cesm::util
