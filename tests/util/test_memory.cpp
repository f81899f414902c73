#include "util/memory.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "util/error.h"

namespace cesm::util {
namespace {

using namespace std::chrono_literals;

/// Spin until `pred` holds or ~5s elapse (far beyond any real contention
/// window; the bound only exists so a regression fails instead of hanging).
template <typename Pred>
bool eventually(Pred&& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

TEST(MemoryBudget, ReserveAccumulatesAndTracksPeak) {
  MemoryBudget budget;  // no cap: account only
  budget.reserve("a", 100);
  budget.reserve("b", 50);
  EXPECT_EQ(budget.charged_bytes(), 150u);
  budget.release(120);
  budget.reserve("c", 10);
  EXPECT_EQ(budget.charged_bytes(), 40u);
  EXPECT_EQ(budget.peak_logical_bytes(), 150u);
}

TEST(MemoryBudget, ReleaseClampsAtZero) {
  MemoryBudget budget(100);
  budget.reserve("a", 30);
  budget.release(1000);  // a mismatched release must not underflow
  EXPECT_EQ(budget.charged_bytes(), 0u);
  budget.reserve("b", 100);  // the whole cap is free again: admitted at once
  EXPECT_EQ(budget.charged_bytes(), 100u);
  EXPECT_EQ(budget.reserve_waits(), 0u);
}

TEST(MemoryBudget, ReserveLargerThanCapThrowsInsteadOfParking) {
  MemoryBudget budget(100);
  // Parking a reservation that can never fit would hang forever.
  EXPECT_THROW(budget.reserve("whale", 101), Error);
  EXPECT_EQ(budget.charged_bytes(), 0u);
  EXPECT_EQ(budget.reserve_waits(), 0u);
}

TEST(MemoryBudget, UncappedReserveNeverBlocks) {
  MemoryBudget budget;  // cap 0
  budget.reserve("a", 1ull << 40);
  budget.reserve("b", 1ull << 40);
  EXPECT_EQ(budget.reserve_waits(), 0u);
  budget.release(1ull << 40);
  budget.release(1ull << 40);
}

TEST(MemoryBudget, ReserveParksUntilRelease) {
  MemoryBudget budget(100);
  budget.reserve("holder", 60);

  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    budget.reserve("waiter", 60);  // 120 > 100: must park
    admitted.store(true);
  });

  // The waiter must be parked, not admitted and not dead.
  ASSERT_TRUE(eventually([&] { return budget.reserve_waits() == 1; }));
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(admitted.load());
  EXPECT_EQ(budget.charged_bytes(), 60u);

  budget.release(60);
  ASSERT_TRUE(eventually([&] { return admitted.load(); }));
  waiter.join();
  EXPECT_EQ(budget.charged_bytes(), 60u);
  // The cap held throughout: both tenants never coexisted.
  EXPECT_LE(budget.peak_logical_bytes(), 100u);
  budget.release(60);
}

TEST(MemoryBudget, FifoAdmissionPreventsStarvationOfLargeReservations) {
  MemoryBudget budget(100);
  budget.reserve("holder", 80);

  // A large reservation parks first; a small one that *would* fit arrives
  // behind it. FIFO admission means the small one must not overtake —
  // otherwise a stream of small tenants could starve the large one forever.
  std::mutex order_mu;
  std::vector<int> order;
  std::thread large([&] {
    budget.reserve("large", 90);
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(90);
    }
  });
  ASSERT_TRUE(eventually([&] { return budget.reserve_waits() == 1; }));

  std::thread small([&] {
    budget.reserve("small", 20);  // fits today, but queued behind "large"
    {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(20);
    }
  });
  ASSERT_TRUE(eventually([&] { return budget.reserve_waits() == 2; }));

  // Nobody admitted yet; the holder still owns 80 of 100.
  {
    std::lock_guard<std::mutex> lock(order_mu);
    EXPECT_TRUE(order.empty());
  }

  budget.release(80);  // large (90) fits now; small must follow, not lead
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 1;
  }));
  {
    std::lock_guard<std::mutex> lock(order_mu);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 90);
  }

  budget.release(90);  // now the small one fits too
  ASSERT_TRUE(eventually([&] {
    std::lock_guard<std::mutex> lock(order_mu);
    return order.size() == 2;
  }));
  large.join();
  small.join();
  EXPECT_LE(budget.peak_logical_bytes(), 100u);
  budget.release(20);
  EXPECT_EQ(budget.charged_bytes(), 0u);
}

TEST(MemoryBudget, ManyTenantsRacingASmallCapAllComplete) {
  // Deadlock/starvation smoke: 8 threads make 25 all-or-nothing
  // reservations each against a cap that fits only two at a time.
  MemoryBudget budget(100);
  std::atomic<int> completed{0};
  std::vector<std::thread> tenants;
  for (int t = 0; t < 8; ++t) {
    tenants.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        MemoryReservation r(budget, "tenant", 40);
        completed.fetch_add(1);
      }
    });
  }
  for (std::thread& t : tenants) t.join();
  EXPECT_EQ(completed.load(), 200);
  EXPECT_EQ(budget.charged_bytes(), 0u);
  EXPECT_LE(budget.peak_logical_bytes(), 100u);
}

TEST(MemoryReservation, ReleasesOnScopeExitIncludingUnwind) {
  MemoryBudget budget(100);
  {
    const MemoryReservation r(budget, "scope", 70);
    EXPECT_EQ(budget.charged_bytes(), 70u);
    EXPECT_EQ(r.bytes(), 70u);
  }
  EXPECT_EQ(budget.charged_bytes(), 0u);

  try {
    const MemoryReservation r(budget, "unwind", 70);
    throw Error("boom");
  } catch (const Error&) {
  }
  EXPECT_EQ(budget.charged_bytes(), 0u);
}

TEST(MemoryBudgetBytes, CapThatOverflowsBytesIsIgnored) {
  const char* prior = std::getenv("CESM_MEM_MB");
  const std::optional<std::string> saved =
      prior != nullptr ? std::optional<std::string>(prior) : std::nullopt;

  ASSERT_EQ(::setenv("CESM_MEM_MB", "17592186044415", 1), 0);  // 2^44 - 1
  EXPECT_EQ(memory_budget_bytes(), std::optional<std::uint64_t>(((1ull << 44) - 1) << 20));
  ASSERT_EQ(::setenv("CESM_MEM_MB", "17592186044417", 1), 0);  // 2^44 + 1 used to wrap to 1 MiB
  EXPECT_EQ(memory_budget_bytes(), std::nullopt);

  if (saved) {
    ::setenv("CESM_MEM_MB", saved->c_str(), 1);
  } else {
    ::unsetenv("CESM_MEM_MB");
  }
}

}  // namespace
}  // namespace cesm::util
