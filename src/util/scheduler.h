#pragma once
// Work-stealing task scheduler with nested parallelism.
//
// Replaces the seed's single-mutex FIFO thread pool, whose nested
// parallel_for calls degraded to serial execution: once run_suite
// parallelized over variables, every inner loop (EnsembleStats build over
// members, GRIB tuning, PVT verify, chunked codec encode/decode) ran on
// one core. This scheduler gives each worker a Chase-Lev-style deque
// (owner pushes/pops LIFO at the bottom, thieves steal FIFO at the top)
// plus a mutex-guarded injection queue for submissions from non-worker
// threads. Joins are help-first: a thread waiting on a TaskGroup —
// worker or external — executes pending tasks instead of blocking, so
//
//   * parallel_for called from inside a task spawns real subtasks that
//     other workers can steal (nested loops compose instead of starving);
//   * two concurrent top-level parallel_for calls are independent joins
//     on independent TaskGroups — there is no global idle barrier.
//
// parallel_for is a template over the loop body: no per-index
// std::function indirect call, no per-task heap allocation in submit
// (one contiguous chunk-task array per loop).
//
// Determinism contract: parallel_for invokes body(i) exactly once per
// index; loops whose iterations write disjoint slots are deterministic
// by construction, so thread count never changes a single bit.
//
// Worker count: explicit constructor argument, else
// Scheduler::set_default_threads() (the bench --threads flag), else the
// CESM_THREADS environment variable, else std::thread::hardware_concurrency.
//
// Observability: the scheduler keeps always-on relaxed counters (tasks
// spawned / stolen / popped / injected / executed inline or in a join,
// per-worker busy nanoseconds), per instance and per worker, so they
// are not rows of the process-wide cesm::trace counter table. stats()
// snapshots them; bench --profile reports render them as "sched.*".

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

namespace cesm {

class Scheduler;
class TaskGroup;

/// Type-erased unit of work. Task objects are owned by the spawning code
/// (typically a stack-scoped array inside parallel_for) and must stay
/// alive until the owning TaskGroup::wait() returns.
struct Task {
  void (*invoke)(Task*) = nullptr;
  TaskGroup* group = nullptr;
};

/// Snapshot of the scheduler's work-distribution counters.
struct SchedulerStats {
  std::uint64_t spawned = 0;   ///< tasks enqueued via TaskGroup::spawn
  std::uint64_t popped = 0;    ///< executed from the spawning worker's own deque
  std::uint64_t stolen = 0;    ///< executed after a successful steal
  std::uint64_t injected = 0;  ///< executed from the external-submission queue
  std::uint64_t helped = 0;    ///< executed inside a TaskGroup::wait (help-first join)
  std::uint64_t inline_chunks = 0;  ///< chunks run directly by the spawning thread
  /// Per-worker task execution time. Exclusive: a task helped inside
  /// another task's wait() counts once, not again in the enclosing task.
  std::vector<std::uint64_t> worker_busy_ns;
  std::uint64_t external_busy_ns = 0;  ///< busy time of helping non-worker threads

  /// Fraction of executed tasks that crossed workers via a steal.
  [[nodiscard]] double steal_ratio() const {
    const std::uint64_t executed = popped + stolen + injected;
    return executed == 0 ? 0.0
                         : static_cast<double>(stolen) / static_cast<double>(executed);
  }
  [[nodiscard]] std::uint64_t total_busy_ns() const {
    std::uint64_t total = external_busy_ns;
    for (std::uint64_t ns : worker_busy_ns) total += ns;
    return total;
  }
};

class Scheduler {
 public:
  /// Spawns `threads` workers; 0 means the default resolution order
  /// documented above (set_default_threads, then CESM_THREADS, then
  /// hardware concurrency; always at least 1).
  explicit Scheduler(std::size_t threads = 0);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] std::size_t thread_count() const;

  [[nodiscard]] SchedulerStats stats() const;
  void reset_stats();

  /// Process-wide scheduler, lazily constructed on first use (possibly
  /// overridden by ScopedScheduler).
  static Scheduler& global();

  /// Worker count the lazily-built global scheduler (and any Scheduler
  /// constructed with threads == 0) will use; takes precedence over
  /// CESM_THREADS. Returns false when the global scheduler already
  /// exists, in which case the call has no effect on it.
  static bool set_default_threads(std::size_t threads);

 private:
  friend class TaskGroup;
  friend class ScopedScheduler;

  struct Impl;

  void submit(Task* task);
  Task* find_task(bool is_worker, std::size_t worker_index);
  void execute(Task* task, bool from_wait);
  void notify_waiters();

  std::unique_ptr<Impl> impl_;
};

/// RAII override of Scheduler::global() — tests and benches run the same
/// code under schedulers of different sizes. Install and remove only from
/// a quiescent point (no parallel loops in flight on the previous global).
class ScopedScheduler {
 public:
  explicit ScopedScheduler(std::size_t threads);
  ~ScopedScheduler();

  ScopedScheduler(const ScopedScheduler&) = delete;
  ScopedScheduler& operator=(const ScopedScheduler&) = delete;

  [[nodiscard]] Scheduler& scheduler() { return *mine_; }

 private:
  std::unique_ptr<Scheduler> mine_;
  Scheduler* prev_;
};

/// A join scope for a batch of spawned tasks. wait() is help-first: the
/// waiting thread executes pending tasks (its own deque first, then the
/// injection queue, then steals) until every spawned task of this group
/// has finished, then rethrows the first captured task exception.
/// A group may be reused for consecutive spawn/wait rounds; it must not
/// be destroyed with spawned tasks still pending.
class TaskGroup {
 public:
  explicit TaskGroup(Scheduler& sched = Scheduler::global()) : sched_(sched) {}

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueue `task` (sets task.group). The task object must outlive wait().
  void spawn(Task& task);

  /// Run `task` directly on the calling thread under this group's
  /// exception capture — parallel_for uses it so the spawning thread
  /// works on the first chunk while workers steal the rest.
  void run_inline(Task& task);

  /// Block (helping) until all spawned tasks finished; rethrow the first
  /// task exception.
  void wait();

 private:
  friend class Scheduler;

  void capture(std::exception_ptr error);
  void finish_one();

  Scheduler& sched_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mu_;  // guards error_
  std::exception_ptr error_;
};

namespace detail {

/// One contiguous range of a parallel_for, pointing at the shared body.
template <class Body>
struct ChunkTask final : Task {
  std::size_t lo = 0;
  std::size_t hi = 0;
  const Body* body = nullptr;

  static void run(Task* task) {
    auto* self = static_cast<ChunkTask*>(task);
    const Body& f = *self->body;
    for (std::size_t i = self->lo; i < self->hi; ++i) f(i);
  }
};

/// Upper bound on tasks per loop: enough over-decomposition for stealing
/// to balance very uneven iterations, bounded so per-element loops do not
/// allocate millions of task descriptors.
inline constexpr std::size_t kMaxChunksPerLoop = 1024;

}  // namespace detail

/// Parallel loop over [begin, end): body(i) is invoked exactly once per
/// index, in unspecified order and thread placement. `grain` is the
/// minimum number of indices per task — use 1 when every index is a
/// substantial unit of work (a variable, a member, a codec chunk).
/// Exceptions from body propagate to the caller after the loop quiesces.
/// Runs serially when the range fits one grain or the scheduler has one
/// worker.
/// Nested calls spawn real subtasks; they compose instead of serializing.
template <class Body>
void parallel_for(std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 1) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  Scheduler& sched = Scheduler::global();
  const std::size_t n = end - begin;
  if (n <= grain || sched.thread_count() <= 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  // Chunk boundaries depend only on (n, grain) — not on the worker count —
  // so the task decomposition is reproducible run to run.
  const std::size_t chunks =
      std::min((n + grain - 1) / grain, detail::kMaxChunksPerLoop);
  const std::size_t step = (n + chunks - 1) / chunks;
  std::vector<detail::ChunkTask<Body>> tasks(chunks);
  std::size_t used = 0;
  for (std::size_t lo = begin; lo < end; lo += step, ++used) {
    detail::ChunkTask<Body>& t = tasks[used];
    t.invoke = &detail::ChunkTask<Body>::run;
    t.lo = lo;
    t.hi = std::min(end, lo + step);
    t.body = &body;
  }
  TaskGroup group(sched);
  for (std::size_t c = 1; c < used; ++c) group.spawn(tasks[c]);
  group.run_inline(tasks[0]);  // the caller works instead of blocking
  group.wait();
}

}  // namespace cesm
