#include "util/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
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
