#include "util/scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <thread>
#include <vector>

#include "util/error.h"

namespace cesm {
namespace {

TEST(Scheduler, TaskGroupExecutesEveryTask) {
  Scheduler sched(4);
  std::atomic<int> counter{0};
  struct CountTask : Task {
    std::atomic<int>* counter = nullptr;
    static void run(Task* t) { static_cast<CountTask*>(t)->counter->fetch_add(1); }
  };
  std::vector<CountTask> tasks(100);
  TaskGroup group(sched);
  for (CountTask& t : tasks) {
    t.invoke = &CountTask::run;
    t.counter = &counter;
    group.spawn(t);
  }
  group.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(Scheduler, WaitOnEmptyGroupReturnsImmediately) {
  Scheduler sched(2);
  TaskGroup group(sched);
  group.wait();  // must not hang
  SUCCEED();
}

TEST(Scheduler, GroupPropagatesTaskExceptionAndStaysUsable) {
  Scheduler sched(2);
  struct ThrowTask : Task {
    static void run(Task*) { throw Error("boom"); }
  };
  struct NopTask : Task {
    bool* ran = nullptr;
    static void run(Task* t) { *static_cast<NopTask*>(t)->ran = true; }
  };
  TaskGroup group(sched);
  ThrowTask bad;
  bad.invoke = &ThrowTask::run;
  group.spawn(bad);
  EXPECT_THROW(group.wait(), Error);
  // Group and scheduler remain usable after an exception.
  bool ran = false;
  NopTask ok;
  ok.invoke = &NopTask::run;
  ok.ran = &ran;
  group.spawn(ok);
  group.wait();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, ScopedSchedulerOverridesGlobal) {
  Scheduler& before = Scheduler::global();
  {
    ScopedScheduler scoped(3);
    EXPECT_EQ(&Scheduler::global(), &scoped.scheduler());
    EXPECT_EQ(Scheduler::global().thread_count(), 3u);
  }
  EXPECT_EQ(&Scheduler::global(), &before);
}

TEST(Scheduler, GlobalSchedulerIsSingleton) {
  EXPECT_EQ(&Scheduler::global(), &Scheduler::global());
  EXPECT_GE(Scheduler::global().thread_count(), 1u);
}

TEST(Scheduler, CesmThreadsEnvControlsDefaultWorkerCount) {
  ASSERT_EQ(setenv("CESM_THREADS", "3", 1), 0);
  const Scheduler sched(0);
  EXPECT_EQ(sched.thread_count(), 3u);
  ASSERT_EQ(setenv("CESM_THREADS", "not-a-number", 1), 0);
  const Scheduler fallback(0);
  EXPECT_GE(fallback.thread_count(), 1u);  // malformed env is ignored
  ASSERT_EQ(unsetenv("CESM_THREADS"), 0);
}

TEST(Scheduler, SetDefaultThreadsBeatsEnv) {
  ASSERT_EQ(setenv("CESM_THREADS", "7", 1), 0);
  Scheduler::set_default_threads(2);
  const Scheduler sched(0);
  EXPECT_EQ(sched.thread_count(), 2u);
  Scheduler::set_default_threads(0);  // restore resolution order
  ASSERT_EQ(unsetenv("CESM_THREADS"), 0);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  ScopedScheduler scoped(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool ran = false;
  parallel_for(5, 5, [&](std::size_t) { ran = true; });
  parallel_for(7, 3, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ParallelFor, ComputesCorrectSum) {
  ScopedScheduler scoped(4);
  std::vector<double> values(10000);
  parallel_for(0, values.size(),
               [&](std::size_t i) { values[i] = static_cast<double>(i); });
  const double sum = std::accumulate(values.begin(), values.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 10000.0 * 9999.0 / 2.0);
}

TEST(ParallelFor, GrainBoundsTaskDecomposition) {
  ScopedScheduler scoped(4);
  Scheduler& sched = scoped.scheduler();
  sched.reset_stats();
  parallel_for(0, 100, [](std::size_t) {}, 25);
  // 100 indices at grain 25 -> 4 chunks: one runs inline, three spawn.
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.spawned, 3u);
  EXPECT_EQ(stats.inline_chunks, 1u);
}

TEST(ParallelFor, NestedLoopsSpawnRealSubtasks) {
  ScopedScheduler scoped(4);
  Scheduler& sched = scoped.scheduler();
  sched.reset_stats();
  std::atomic<int> counter{0};
  parallel_for(0, 16, [&](std::size_t) {
    parallel_for(0, 16, [&](std::size_t) { counter.fetch_add(1); });
  });
  EXPECT_EQ(counter.load(), 256);
  // The seed pool degraded nested calls to serial (zero inner submissions).
  // Here the outer loop spawns 15 tasks and every inner loop spawns 15
  // more, from worker context as well as from the caller.
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.spawned, 15u + 16u * 15u);
  EXPECT_EQ(stats.spawned,
            stats.popped + stats.stolen + stats.injected);  // all consumed
  EXPECT_EQ(stats.inline_chunks, 1u + 16u);
}

TEST(ParallelFor, PropagatesBodyException) {
  ScopedScheduler scoped(2);
  EXPECT_THROW(parallel_for(0, 100,
                            [](std::size_t i) {
                              if (i == 50) throw Error("body failure");
                            }),
               Error);
  // Scheduler still works after the failed loop.
  std::atomic<int> counter{0};
  parallel_for(0, 64, [&](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelFor, ConcurrentTopLevelLoopsDoNotInterfere) {
  // Two external threads drive independent loops on one scheduler. The
  // seed pool joined both through a single global idle barrier; the
  // scheduler gives each loop its own TaskGroup join.
  ScopedScheduler scoped(4);
  std::atomic<int> a{0};
  std::atomic<int> b{0};
  std::thread ta([&] {
    parallel_for(0, 64, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      a.fetch_add(1);
    });
  });
  std::thread tb([&] {
    parallel_for(0, 64, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      b.fetch_add(1);
    });
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a.load(), 64);
  EXPECT_EQ(b.load(), 64);
}

TEST(ParallelFor, DeepNestingCompletesWithinHelpDepthCap) {
  ScopedScheduler scoped(4);
  std::atomic<int> counter{0};
  // Four levels of nesting, 3^4 = 81 leaf increments; exercises the
  // help-first join recursion and its depth bookkeeping.
  std::function<void(int)> nest = [&](int depth) {
    if (depth == 0) {
      counter.fetch_add(1);
      return;
    }
    parallel_for(0, 3, [&](std::size_t) { nest(depth - 1); });
  };
  nest(4);
  EXPECT_EQ(counter.load(), 81);
}

/// Adversarial float inputs for reduction-order tests: values spanning 30
/// orders of magnitude with alternating signs, so any reassociation of the
/// serial fold changes the result bitwise.
std::vector<double> adversarial_values(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mag = std::pow(10.0, static_cast<double>(i % 31) - 15.0);
    v[i] = (i % 2 == 0 ? 1.0 : -1.0) * mag * (1.0 + 1e-13 * static_cast<double>(i));
  }
  return v;
}

double reduce_sum(const std::vector<double>& v, std::size_t grain) {
  return parallel_reduce(
      0, v.size(), 0.0,
      [&](std::size_t lo, std::size_t hi, double acc) {
        for (std::size_t i = lo; i < hi; ++i) acc += v[i];
        return acc;
      },
      [](double a, double b) { return a + b; }, grain);
}

TEST(ParallelReduce, BitIdenticalAcrossThreadCounts) {
  const std::vector<double> v = adversarial_values(100000);
  constexpr std::size_t kGrain = 1024;
  double expected;
  {
    ScopedScheduler scoped(1);
    expected = reduce_sum(v, kGrain);
  }
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ScopedScheduler scoped(threads);
    for (int rep = 0; rep < 3; ++rep) {  // steal interleavings vary per run
      const double got = reduce_sum(v, kGrain);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(expected))
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(ParallelReduce, MatchesExplicitChunkedFold) {
  // The contract: left fold over per-chunk partials in ascending chunk
  // order, each seeded from `init`. Verify against a hand-rolled copy.
  const std::vector<double> v = adversarial_values(10000);
  constexpr std::size_t kGrain = 512;
  double expected = 0.0;
  bool first = true;
  for (std::size_t lo = 0; lo < v.size(); lo += kGrain) {
    const std::size_t hi = std::min(v.size(), lo + kGrain);
    double partial = 0.0;
    for (std::size_t i = lo; i < hi; ++i) partial += v[i];
    expected = first ? partial : expected + partial;
    first = false;
  }
  ScopedScheduler scoped(4);
  const double got = reduce_sum(v, kGrain);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(expected));
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  EXPECT_EQ(parallel_reduce(
                3, 3, 42.0,
                [](std::size_t, std::size_t, double acc) { return acc + 1.0; },
                [](double a, double b) { return a + b; }),
            42.0);
}

TEST(ParallelReduce, MaxReduction) {
  std::vector<double> v(5000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<double>((i * 2654435761u) % 100000);
  }
  ScopedScheduler scoped(4);
  const double got = parallel_reduce(
      0, v.size(), 0.0,
      [&](std::size_t lo, std::size_t hi, double acc) {
        for (std::size_t i = lo; i < hi; ++i) acc = std::max(acc, v[i]);
        return acc;
      },
      [](double a, double b) { return std::max(a, b); });
  EXPECT_EQ(got, *std::max_element(v.begin(), v.end()));
}

TEST(SchedulerStats, StealRatioAndBusyTimeArePopulated) {
  ScopedScheduler scoped(4);
  Scheduler& sched = scoped.scheduler();
  sched.reset_stats();
  std::atomic<int> counter{0};
  parallel_for(0, 64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    counter.fetch_add(1);
  });
  const SchedulerStats stats = sched.stats();
  EXPECT_EQ(stats.spawned, 63u);
  EXPECT_GT(stats.total_busy_ns(), 0u);
  EXPECT_EQ(stats.worker_busy_ns.size(), 4u);
  EXPECT_GE(stats.steal_ratio(), 0.0);
  EXPECT_LE(stats.steal_ratio(), 1.0);
}

TEST(SchedulerStats, NestedHelpedTasksAreNotCountedTwice) {
  // Three nested parallel_for levels: every waiting task helps run
  // descendants inside its own wait(). Booking each task's whole wall time
  // would count a helped task again in every task enclosing it; exclusive
  // time keeps the sum within (workers + the helping caller) x the wall.
  constexpr std::size_t kWorkers = 4;
  ScopedScheduler scoped(kWorkers);
  Scheduler& sched = scoped.scheduler();
  sched.reset_stats();
  std::atomic<int> leaves{0};
  const auto t0 = std::chrono::steady_clock::now();
  parallel_for(0, 8, [&](std::size_t) {
    parallel_for(0, 8, [&](std::size_t) {
      parallel_for(0, 8, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        leaves.fetch_add(1);
      });
    });
  });
  const auto wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  EXPECT_EQ(leaves.load(), 512);
  const SchedulerStats stats = sched.stats();
  EXPECT_GT(stats.helped, 0u);
  EXPECT_LE(stats.total_busy_ns(), (kWorkers + 1) * wall_ns);
}

}  // namespace
}  // namespace cesm
