#include "util/scheduler.h"

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>

#include "util/env.h"
#include "util/failpoint.h"

namespace cesm {

namespace {

// Thread-identity of a worker: which scheduler owns the calling thread
// (compared by Impl address) and its worker slot. Non-worker threads keep
// the null default and use the external stats slot + injection queue.
thread_local const void* t_owner = nullptr;
thread_local std::size_t t_worker_index = 0;

// Depth of nested help-first joins on this thread. Each foreign task
// executed inside a TaskGroup::wait can itself wait and help, growing the
// stack; past kMaxHelpDepth a waiter only runs tasks from its own deque
// (descendants of the current task) and otherwise parks.
thread_local int t_help_depth = 0;
constexpr int kMaxHelpDepth = 64;

// Wall time of the tasks this thread ran nested inside the task it is
// running now (helped in a TaskGroup::wait). run_task subtracts it, so a
// task books only its exclusive time and busy_ns never counts a nested
// task twice.
thread_local std::uint64_t t_nested_ns = 0;

// A parked at-cap waiter escapes (helps anyway, accepting stack growth)
// after this many consecutive empty timeouts, so "every thread is at the
// help cap" can never deadlock with runnable tasks still queued.
constexpr int kCapEscapeTimeouts = 64;

constexpr auto kWorkerParkTimeout = std::chrono::microseconds(500);
constexpr auto kWaiterParkTimeout = std::chrono::microseconds(200);

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Ceiling on explicitly requested worker threads: far above any real
// machine, low enough that a fat-fingered CESM_THREADS cannot make the
// pool constructor attempt a million std::threads.
constexpr std::size_t kMaxEnvThreads = 4096;

std::size_t resolve_env_threads() {
  // env_u64 warns on stderr and returns nullopt for "-1", "abc", "4x" —
  // the old strtoll path ignored those silently, so a typo'd CESM_THREADS
  // degraded to the default with no hint why.
  const auto v = util::env_u64("CESM_THREADS");
  if (!v.has_value()) return 0;  // unset or malformed (already warned)
  if (*v == 0 || *v > kMaxEnvThreads) {
    std::fprintf(stderr, "CESM_THREADS ignored: %llu outside [1, %zu]\n",
                 static_cast<unsigned long long>(*v), kMaxEnvThreads);
    return 0;
  }
  return static_cast<std::size_t>(*v);
}

std::atomic<std::size_t> g_default_threads{0};
std::atomic<bool> g_global_built{false};
std::atomic<Scheduler*> g_override{nullptr};

/// Chase-Lev-style work-stealing deque with a fixed power-of-two capacity.
/// The owning worker pushes and pops at the bottom (LIFO keeps nested
/// subtasks cache-hot); thieves CAS the top (FIFO steals take the oldest,
/// largest-granularity work). All top_/bottom_ accesses are seq_cst rather
/// than the classic fence-based orderings: ThreadSanitizer does not model
/// std::atomic_thread_fence, and at our chunk granularity the seq_cst cost
/// is unmeasurable. A full deque rejects the push and the scheduler falls
/// back to the mutex-guarded injection queue, so capacity never limits
/// correctness and slots never need reclamation or growth.
class Deque {
 public:
  static constexpr std::size_t kCapacity = 4096;
  static constexpr std::size_t kMask = kCapacity - 1;

  /// Owner only. False when full.
  bool push(Task* task) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    slots_[static_cast<std::size_t>(b) & kMask].store(task, std::memory_order_relaxed);
    bottom_.store(b + 1, std::memory_order_seq_cst);
    return true;
  }

  /// Owner only. Null when empty (or lost the race for the last element).
  Task* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    if (t > b) {  // empty: restore bottom
      bottom_.store(b + 1, std::memory_order_seq_cst);
      return nullptr;
    }
    Task* task = slots_[static_cast<std::size_t>(b) & kMask].load(std::memory_order_relaxed);
    if (t == b) {  // last element: race thieves for it
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_seq_cst)) {
        task = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_seq_cst);
    }
    return task;
  }

  /// Any thread. Null when empty or on CAS contention (callers just move
  /// to the next victim).
  Task* steal() {
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
    if (t >= b) return nullptr;
    Task* task = slots_[static_cast<std::size_t>(t) & kMask].load(std::memory_order_relaxed);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_seq_cst)) {
      return nullptr;
    }
    return task;
  }

  [[nodiscard]] bool maybe_nonempty() const {
    return bottom_.load(std::memory_order_seq_cst) > top_.load(std::memory_order_seq_cst);
  }

 private:
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::array<std::atomic<Task*>, kCapacity> slots_{};
};

/// Per-source execution counters, cache-line padded so workers never
/// false-share. Always on: relaxed increments are cheap next to the
/// chunk-sized tasks they count.
struct alignas(64) SourceCounters {
  std::atomic<std::uint64_t> spawned{0};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> stolen{0};
  std::atomic<std::uint64_t> injected{0};
  std::atomic<std::uint64_t> helped{0};
  std::atomic<std::uint64_t> inline_chunks{0};
  std::atomic<std::uint64_t> busy_ns{0};
};

struct alignas(64) WorkerSlot {
  Deque deque;
  SourceCounters counters;
};

}  // namespace

struct Scheduler::Impl {
  std::vector<std::unique_ptr<WorkerSlot>> workers;
  SourceCounters external;  // shared by all non-worker threads

  std::mutex inject_mu;
  std::deque<Task*> inject;

  // Idle-worker parking. Missed notifies are bounded by the wait_for
  // timeout, never a deadlock.
  std::mutex park_mu;
  std::condition_variable park_cv;
  std::atomic<int> idle{0};

  // TaskGroup waiter parking. Lives on the scheduler — never on a group —
  // so a task's final finish_one() can signal completion without touching
  // group memory that the woken waiter may already have destroyed.
  std::mutex wait_mu;
  std::condition_variable wait_cv;

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  [[nodiscard]] SourceCounters& counters_here() {
    if (t_owner == this) return workers[t_worker_index]->counters;
    return external;
  }

  [[nodiscard]] bool any_queued_work() {
    for (const auto& w : workers) {
      if (w->deque.maybe_nonempty()) return true;
    }
    std::lock_guard lk(inject_mu);
    return !inject.empty();
  }

  Task* pop_injection() {
    std::lock_guard lk(inject_mu);
    if (inject.empty()) return nullptr;
    Task* task = inject.front();
    inject.pop_front();
    return task;
  }

  /// Steal scan over every worker deque, starting after `self_index`
  /// (SIZE_MAX for external threads). Two rounds absorb transient CAS
  /// contention before the caller decides to park.
  Task* try_steal(std::size_t self_index) {
    const std::size_t n = workers.size();
    const std::size_t start = self_index == SIZE_MAX ? 0 : self_index + 1;
    for (int round = 0; round < 2; ++round) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t victim = (start + i) % n;
        if (victim == self_index) continue;
        if (Task* task = workers[victim]->deque.steal()) return task;
      }
    }
    return nullptr;
  }

  void worker_main(std::size_t index) {
    t_owner = this;
    t_worker_index = index;
    WorkerSlot& self = *workers[index];
    while (!stop.load(std::memory_order_acquire)) {
      Task* task = self.deque.pop();
      if (task != nullptr) {
        self.counters.popped.fetch_add(1, std::memory_order_relaxed);
      } else if ((task = pop_injection()) != nullptr) {
        self.counters.injected.fetch_add(1, std::memory_order_relaxed);
      } else if ((task = try_steal(index)) != nullptr) {
        self.counters.stolen.fetch_add(1, std::memory_order_relaxed);
      }
      if (task != nullptr) {
        run_task(task, /*from_wait=*/false);
        continue;
      }
      std::unique_lock lk(park_mu);
      idle.fetch_add(1, std::memory_order_seq_cst);
      if (!stop.load(std::memory_order_acquire) && !any_queued_work()) {
        park_cv.wait_for(lk, kWorkerParkTimeout);
      }
      idle.fetch_sub(1, std::memory_order_relaxed);
    }
    t_owner = nullptr;
  }

  /// Execute one task under its group's exception capture and account its
  /// exclusive wall time (minus the tasks it helped inside a wait) to the
  /// calling thread's counter slot.
  void run_task(Task* task, bool from_wait) {
    SourceCounters& c = counters_here();
    if (from_wait) c.helped.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t enclosing_nested = t_nested_ns;
    t_nested_ns = 0;
    const std::uint64_t t0 = now_ns();
    TaskGroup* group = task->group;
    try {
      // Inside the capture block: an injected fault takes the exact path a
      // real task-body exception takes (captured, rethrown at wait()).
      CESM_FAILPOINT("sched.task");
      task->invoke(task);
    } catch (...) {
      group->capture(std::current_exception());
    }
    const std::uint64_t wall = now_ns() - t0;
    c.busy_ns.fetch_add(wall - t_nested_ns, std::memory_order_relaxed);
    t_nested_ns = enclosing_nested + wall;
    group->finish_one();
  }
};

Scheduler::Scheduler(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  if (threads == 0) threads = g_default_threads.load(std::memory_order_relaxed);
  if (threads == 0) threads = resolve_env_threads();
  if (threads == 0) threads = std::thread::hardware_concurrency();
  threads = std::clamp<std::size_t>(threads, 1, 1024);
  impl_->workers.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    impl_->workers.push_back(std::make_unique<WorkerSlot>());
  }
  // A 1-worker scheduler runs everything on the calling thread (parallel_for
  // short-circuits), so skip the lone worker thread too: it would only spin.
  if (threads > 1) {
    impl_->threads.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      impl_->threads.emplace_back([this, i] { impl_->worker_main(i); });
    }
  }
}

Scheduler::~Scheduler() {
  impl_->stop.store(true, std::memory_order_release);
  {
    std::lock_guard lk(impl_->park_mu);
  }
  impl_->park_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

std::size_t Scheduler::thread_count() const { return impl_->workers.size(); }

void Scheduler::submit(Task* task) {
  Impl& im = *impl_;
  bool queued = false;
  if (t_owner == impl_.get()) {
    queued = im.workers[t_worker_index]->deque.push(task);
  }
  if (!queued) {
    std::lock_guard lk(im.inject_mu);
    im.inject.push_back(task);
  }
  im.counters_here().spawned.fetch_add(1, std::memory_order_relaxed);
  if (im.idle.load(std::memory_order_seq_cst) > 0) im.park_cv.notify_one();
}

Task* Scheduler::find_task(bool is_worker, std::size_t worker_index) {
  Impl& im = *impl_;
  SourceCounters& c = im.counters_here();
  if (is_worker) {
    if (Task* task = im.workers[worker_index]->deque.pop()) {
      c.popped.fetch_add(1, std::memory_order_relaxed);
      return task;
    }
  }
  if (t_help_depth >= kMaxHelpDepth) return nullptr;  // own deque only at cap
  if (Task* task = im.pop_injection()) {
    c.injected.fetch_add(1, std::memory_order_relaxed);
    return task;
  }
  if (Task* task = im.try_steal(is_worker ? worker_index : SIZE_MAX)) {
    c.stolen.fetch_add(1, std::memory_order_relaxed);
    return task;
  }
  return nullptr;
}

void Scheduler::execute(Task* task, bool from_wait) { impl_->run_task(task, from_wait); }

void Scheduler::notify_waiters() {
  Impl& im = *impl_;
  {
    // Empty critical section: a waiter between its pending_ check and its
    // wait_for() holds wait_mu, so this cannot slip into that window.
    std::lock_guard lk(im.wait_mu);
  }
  im.wait_cv.notify_all();
}

SchedulerStats Scheduler::stats() const {
  const Impl& im = *impl_;
  SchedulerStats s;
  s.worker_busy_ns.reserve(im.workers.size());
  auto add = [&s](const SourceCounters& c) {
    s.spawned += c.spawned.load(std::memory_order_relaxed);
    s.popped += c.popped.load(std::memory_order_relaxed);
    s.stolen += c.stolen.load(std::memory_order_relaxed);
    s.injected += c.injected.load(std::memory_order_relaxed);
    s.helped += c.helped.load(std::memory_order_relaxed);
    s.inline_chunks += c.inline_chunks.load(std::memory_order_relaxed);
  };
  for (const auto& w : im.workers) {
    add(w->counters);
    s.worker_busy_ns.push_back(w->counters.busy_ns.load(std::memory_order_relaxed));
  }
  add(im.external);
  s.external_busy_ns = im.external.busy_ns.load(std::memory_order_relaxed);
  return s;
}

void Scheduler::reset_stats() {
  Impl& im = *impl_;
  auto clear = [](SourceCounters& c) {
    c.spawned.store(0, std::memory_order_relaxed);
    c.popped.store(0, std::memory_order_relaxed);
    c.stolen.store(0, std::memory_order_relaxed);
    c.injected.store(0, std::memory_order_relaxed);
    c.helped.store(0, std::memory_order_relaxed);
    c.inline_chunks.store(0, std::memory_order_relaxed);
    c.busy_ns.store(0, std::memory_order_relaxed);
  };
  for (const auto& w : im.workers) clear(w->counters);
  clear(im.external);
}

Scheduler& Scheduler::global() {
  if (Scheduler* s = g_override.load(std::memory_order_acquire)) return *s;
  static Scheduler instance;
  g_global_built.store(true, std::memory_order_relaxed);
  return instance;
}

bool Scheduler::set_default_threads(std::size_t threads) {
  g_default_threads.store(threads, std::memory_order_relaxed);
  return !g_global_built.load(std::memory_order_relaxed);
}

ScopedScheduler::ScopedScheduler(std::size_t threads)
    : mine_(std::make_unique<Scheduler>(threads)),
      prev_(g_override.exchange(mine_.get(), std::memory_order_acq_rel)) {}

ScopedScheduler::~ScopedScheduler() {
  g_override.store(prev_, std::memory_order_release);
}

void TaskGroup::spawn(Task& task) {
  task.group = this;
  pending_.fetch_add(1, std::memory_order_relaxed);
  sched_.submit(&task);
}

void TaskGroup::run_inline(Task& task) {
  task.group = this;
  sched_.impl_->counters_here().inline_chunks.fetch_add(1, std::memory_order_relaxed);
  try {
    task.invoke(&task);
  } catch (...) {
    capture(std::current_exception());
  }
}

void TaskGroup::wait() {
  Scheduler& s = sched_;
  Scheduler::Impl& im = *s.impl_;
  const bool is_worker = (t_owner == &im);
  const std::size_t self_index = is_worker ? t_worker_index : SIZE_MAX;
  int empty_timeouts = 0;
  while (pending_.load(std::memory_order_acquire) != 0) {
    Task* task = s.find_task(is_worker, self_index);
    if (task == nullptr && empty_timeouts >= kCapEscapeTimeouts) {
      // Every runnable thread may be parked at the help cap; help anyway
      // (bounded stack growth beats a deadlock), bypassing the cap check.
      if ((task = im.pop_injection()) == nullptr) task = im.try_steal(self_index);
      if (task != nullptr) {
        im.counters_here().stolen.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (task != nullptr) {
      empty_timeouts = 0;
      ++t_help_depth;
      s.execute(task, /*from_wait=*/true);
      --t_help_depth;
      continue;
    }
    std::unique_lock lk(im.wait_mu);
    if (pending_.load(std::memory_order_acquire) == 0) break;
    im.wait_cv.wait_for(lk, kWaiterParkTimeout);
    ++empty_timeouts;
  }
  std::exception_ptr error;
  {
    std::lock_guard lk(mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void TaskGroup::capture(std::exception_ptr error) {
  std::lock_guard lk(mu_);
  if (!error_) error_ = std::move(error);
}

void TaskGroup::finish_one() {
  // Cache the scheduler BEFORE the decrement: the moment pending_ hits
  // zero the waiter may return from wait() and destroy this group, so the
  // completion signal must only touch scheduler-lifetime state.
  Scheduler* s = &sched_;
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    s->notify_waiters();
  }
}

}  // namespace cesm
