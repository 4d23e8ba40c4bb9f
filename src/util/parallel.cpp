#include "util/parallel.h"

#include <atomic>
#include <chrono>
#include <exception>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace_context.h"

namespace auric::util {

namespace {
std::atomic<std::size_t> g_workers{0};  // 0 = use hardware default

// True while the current thread executes a TaskPool task (worker threads and
// calling threads that help drain their own batch). Drives the nested-call
// guard: parallelism requested from inside a task degrades to serial.
thread_local bool t_in_pool_task = false;

using PoolClock = std::chrono::steady_clock;

// Pool utilization instruments, resolved once (references stay valid for the
// registry's lifetime). The busy gauge and the submit-to-start wait
// histogram are what prove — or disprove — multicore speedup: a pool whose
// busy gauge never exceeds 1 or whose wait histogram dwarfs task runtime is
// not buying parallelism.
struct PoolInstruments {
  obs::Gauge& busy;
  obs::Histogram& wait_ms;
};

PoolInstruments& pool_instruments() {
  static PoolInstruments* instruments = new PoolInstruments{
      obs::MetricsRegistry::global().gauge("auric_pool_tasks_busy",
                                           "TaskPool tasks executing right now"),
      obs::MetricsRegistry::global().histogram(
          "auric_pool_submit_wait_ms", obs::default_latency_bounds_ms(),
          "submit-to-start wait of TaskPool tasks")};
  return *instruments;
}

/// RAII busy-gauge increment around one task execution.
struct BusyScope {
  BusyScope() { pool_instruments().busy.add(1.0); }
  ~BusyScope() { pool_instruments().busy.add(-1.0); }
};

double elapsed_ms(PoolClock::time_point since) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(PoolClock::now() -
                                                                               since)
      .count();
}
}  // namespace

std::size_t worker_count() {
  const std::size_t forced = g_workers.load(std::memory_order_relaxed);
  if (forced != 0) return forced;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void set_worker_count(std::size_t workers) {
  g_workers.store(workers, std::memory_order_relaxed);
}

TaskPool::TaskPool(std::size_t workers) { reserve(workers); }

TaskPool::~TaskPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& th : threads_) th.join();
}

std::size_t TaskPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_.size();
}

void TaskPool::reserve(std::size_t workers) {
  std::lock_guard<std::mutex> lock(mu_);
  while (threads_.size() < workers) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

bool TaskPool::on_worker_thread() { return t_in_pool_task; }

TaskPool& TaskPool::shared() {
  static TaskPool pool(worker_count() > 1 ? worker_count() : 0);
  return pool;
}

void TaskPool::run_inline(std::vector<std::function<void()>>& tasks,
                          std::vector<std::exception_ptr>& errors) {
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    try {
      tasks[i]();
    } catch (...) {
      errors[i] = std::current_exception();
    }
  }
}

void TaskPool::run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  std::vector<std::exception_ptr> errors(tasks.size());

  bool inline_only;
  {
    std::lock_guard<std::mutex> lock(mu_);
    inline_only = threads_.empty();
  }
  if (inline_only || t_in_pool_task || tasks.size() == 1) {
    // No workers, nested call, or nothing to fan out: the calling thread does
    // all the work. Exception semantics are identical to the threaded path.
    const bool was_in_task = t_in_pool_task;
    t_in_pool_task = true;
    run_inline(tasks, errors);
    t_in_pool_task = was_in_task;
  } else {
    Batch batch;
    batch.tasks = &tasks;
    batch.errors.resize(tasks.size());
    batch.ctx = obs::current_trace_context();
    batch.submitted = PoolClock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_batches_.push_back(&batch);
    }
    work_cv_.notify_all();
    // The calling thread helps drain its own batch, then waits for stragglers
    // claimed by workers. Workers never hold a pointer to a batch without a
    // claimed task (claims happen under mu_, and the batch leaves
    // open_batches_ with its last claim), so waiting for done == n is enough
    // to make destroying the batch safe.
    work_on(batch);
    {
      std::unique_lock<std::mutex> lock(mu_);
      batch.done_cv.wait(lock, [&] { return batch.done == tasks.size(); });
    }
    errors = std::move(batch.errors);
  }

  for (auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

void TaskPool::remove_open(Batch& batch) {
  for (auto it = open_batches_.begin(); it != open_batches_.end(); ++it) {
    if (*it == &batch) {
      open_batches_.erase(it);
      return;
    }
  }
}

void TaskPool::execute(Batch& batch, std::size_t index) {
  pool_instruments().wait_ms.observe(elapsed_ms(batch.submitted));
  const bool was_in_task = t_in_pool_task;
  t_in_pool_task = true;
  try {
    // Re-establish the submitter's trace context: a span opened by this
    // task parents under the submitting thread's span. Restored on exit —
    // also on the submitter's own help loop, where installing its own
    // context is a harmless no-op.
    obs::TraceContextScope trace_scope(batch.ctx);
    BusyScope busy;
    (*batch.tasks)[index]();
  } catch (...) {
    batch.errors[index] = std::current_exception();
  }
  t_in_pool_task = was_in_task;
}

void TaskPool::work_on(Batch& batch) {
  const std::size_t n = batch.tasks->size();
  for (;;) {
    std::size_t i;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (batch.next >= n) return;
      i = batch.next++;
      if (batch.next >= n) remove_open(batch);
    }
    execute(batch, i);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++batch.done;
      if (batch.done == n) batch.done_cv.notify_all();
    }
  }
}

void TaskPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || !open_batches_.empty(); });
    if (open_batches_.empty()) return;  // stop_ set and no batch left
    // Claim a task from the oldest open batch in the same critical section
    // that yields the batch pointer — a batch in open_batches_ always has
    // unclaimed work, and claiming keeps it alive until our done increment.
    Batch& batch = *open_batches_.front();
    const std::size_t n = batch.tasks->size();
    const std::size_t i = batch.next++;
    if (batch.next >= n) remove_open(batch);
    lock.unlock();
    execute(batch, i);
    lock.lock();
    ++batch.done;
    // After notifying, `batch` may be destroyed by its owner; don't touch it.
    if (batch.done == n) batch.done_cv.notify_all();
  }
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const std::size_t workers = worker_count();
  if (n == 0) return;
  if (workers <= 1 || n == 1 || TaskPool::on_worker_thread()) {
    // Serial fallback; the on_worker_thread() case is the nested-call guard —
    // fanning out again from inside a pool task would oversubscribe the host.
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  const std::size_t runner_count = workers < n ? workers : n;
  std::vector<std::exception_ptr> errors(runner_count);
  std::vector<std::function<void()>> runners;
  runners.reserve(runner_count);
  for (std::size_t t = 0; t < runner_count; ++t) {
    runners.emplace_back([&, t] {
      try {
        // Dynamic work stealing over single indices: per-parameter work is
        // highly uneven (domain sizes differ by 100x), so static chunking
        // would idle workers.
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          fn(i);
        }
      } catch (...) {
        errors[t] = std::current_exception();
        // Drain remaining indices so siblings finish promptly.
        next.store(n);
      }
    });
  }
  TaskPool& pool = TaskPool::shared();
  pool.reserve(runner_count > 1 ? runner_count - 1 : 0);
  pool.run(std::move(runners));
  for (const auto& err : errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace auric::util
