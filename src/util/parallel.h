// Worker-pool parallelism: parallel_for over an index range, and a
// persistent TaskPool for heterogeneous task batches.
//
// The evaluation harness is embarrassingly parallel across configuration
// parameters, and the sharded launch stream (smartlaunch::OperationReplay
// with ReplayOptions::shards > 1) is parallel across EMS shards. Both run on
// the shared TaskPool below: a bounded set of persistent worker threads that
// execute submitted task batches with exception propagation back to the
// caller. On a single-core host (our CI box) everything degrades to a plain
// serial loop with zero thread overhead, so results are deterministic either
// way — callers must still ensure per-task work is independent.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace_context.h"

namespace auric::util {

/// Number of workers parallel_for / TaskPool::shared() will use (>= 1).
std::size_t worker_count();

/// Overrides the worker count (0 restores the hardware default). Exposed so
/// tests can force both the serial and the threaded path.
void set_worker_count(std::size_t workers);

/// A pool of persistent worker threads executing batches of tasks.
///
/// run() executes every task of a batch (the calling thread helps, so a
/// pool is never slower than the serial loop), collects per-task exceptions,
/// and rethrows the first one by task index after the whole batch finished —
/// a failed task never silently cancels its siblings, which matters when
/// tasks own disjoint shards of mutable state (the sharded replay).
///
/// Nested-call guard: run() invoked from inside a pool task executes the
/// nested batch inline on the current thread instead of re-entering the
/// queue, so nested parallelism can neither deadlock the pool nor
/// oversubscribe the host.
///
/// Trace propagation: run() captures the submitting thread's
/// obs::TraceContext and every task executes under it, so spans
/// opened inside a pool task join the submitter's trace and parent under
/// the submitter's span — one replay day (or one relearn) stitches into a
/// single trace tree across the fan-out. The pool also feeds two
/// utilization instruments (auric_pool_tasks_busy,
/// auric_pool_submit_wait_ms) that make queueing delay and real
/// parallelism measurable.
class TaskPool {
 public:
  /// Spawns `workers` persistent threads (0 = no threads; run() executes
  /// batches inline on the calling thread).
  explicit TaskPool(std::size_t workers);
  ~TaskPool();
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Worker threads currently alive.
  std::size_t size() const;

  /// Grows the pool to at least `workers` threads (never shrinks).
  void reserve(std::size_t workers);

  /// Executes every task in `tasks` (order of completion unspecified; the
  /// calling thread participates). Returns once all tasks finished, then
  /// rethrows the first exception by task index, if any. Safe to call from
  /// inside a task (runs inline, see the nested-call guard above).
  void run(std::vector<std::function<void()>> tasks);

  /// True on a pool worker thread, or while the calling thread executes a
  /// task batch (the guard parallel_for uses to serialize nested calls).
  static bool on_worker_thread();

  /// The process-wide pool parallel_for and the sharded replay share. Lazily
  /// created with worker_count() threads on first use and grown on demand;
  /// never created on a host where worker_count() == 1.
  static TaskPool& shared();

 private:
  struct Batch {
    std::vector<std::function<void()>>* tasks = nullptr;
    std::size_t next = 0;              ///< next task index to claim (under mu_)
    std::size_t done = 0;              ///< tasks finished (under mu_)
    std::vector<std::exception_ptr> errors;
    std::condition_variable done_cv;
    obs::TraceContext ctx;             ///< submitter's trace context
    std::chrono::steady_clock::time_point submitted;
  };

  void worker_loop();
  /// Claims and runs tasks of `batch` until none remain (the calling
  /// thread's help loop; only the batch owner may use it).
  void work_on(Batch& batch);
  /// Runs task `index` of `batch` with the in-task flag set, capturing any
  /// exception into batch.errors.
  static void execute(Batch& batch, std::size_t index);
  /// Drops `batch` from open_batches_ (caller holds mu_).
  void remove_open(Batch& batch);
  static void run_inline(std::vector<std::function<void()>>& tasks,
                         std::vector<std::exception_ptr>& errors);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<std::thread> threads_;
  std::deque<Batch*> open_batches_;  ///< batches with unclaimed tasks
  bool stop_ = false;
};

/// Invokes fn(i) for every i in [0, n). fn must be thread-safe with respect
/// to distinct indices. Exceptions thrown by fn are rethrown on the calling
/// thread (the first one encountered, by lowest worker id); once a worker
/// throws, remaining unclaimed indices are skipped so siblings finish
/// promptly. Runs serially when worker_count() is 1, n is 1, or the caller
/// is already inside a TaskPool task (nested-call guard).
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace auric::util
