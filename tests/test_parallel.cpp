#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace auric::util {
namespace {

class WorkerCountTest : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_worker_count(GetParam()); }
  void TearDown() override { set_worker_count(0); }
};

TEST_P(WorkerCountTest, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorkerCountTest, EmptyRangeIsNoop) {
  parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST_P(WorkerCountTest, PropagatesExceptions) {
  EXPECT_THROW(parallel_for(16,
                            [](std::size_t i) {
                              if (i == 7) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
}

TEST_P(WorkerCountTest, ResultsMatchSerialComputation) {
  std::vector<long> out(100);
  parallel_for(out.size(), [&](std::size_t i) { out[i] = static_cast<long>(i * i); });
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<long>(i * i));
}

INSTANTIATE_TEST_SUITE_P(Workers, WorkerCountTest, ::testing::Values(1u, 2u, 4u));

TEST_P(WorkerCountTest, HandlesFewerItemsThanWorkers) {
  // n < workers: only n runners are spun up; every index still runs once.
  std::vector<std::atomic<int>> hits(2);
  parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_P(WorkerCountTest, NestedCallRunsSerially) {
  // The nested-call guard: a parallel_for from inside a pool task must not
  // re-enter the pool (deadlock/oversubscription), it runs inline instead.
  std::atomic<int> total{0};
  parallel_for(8, [&](std::size_t) {
    parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(WorkerCount, DefaultAtLeastOne) {
  set_worker_count(0);
  EXPECT_GE(worker_count(), 1u);
}

class TaskPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { set_worker_count(0); }
};

TEST_F(TaskPoolTest, RunsEveryTaskOnce) {
  TaskPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
  std::vector<std::atomic<int>> hits(57);
  std::vector<std::function<void()>> tasks;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(TaskPoolTest, EmptyBatchIsNoop) {
  TaskPool pool(2);
  pool.run({});
}

TEST_F(TaskPoolTest, ZeroWorkersRunsInline) {
  TaskPool pool(0);
  EXPECT_EQ(pool.size(), 0u);
  int hits = 0;
  pool.run({[&] { ++hits; }, [&] { ++hits; }});
  EXPECT_EQ(hits, 2);
}

TEST_F(TaskPoolTest, PropagatesFirstExceptionByTaskIndex) {
  TaskPool pool(4);
  // All tasks run to completion even when siblings throw, and the first
  // exception *by task index* (not completion order) is rethrown.
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([&completed, i] {
      completed.fetch_add(1);
      if (i == 5) throw std::runtime_error("late");
      if (i == 2) throw std::logic_error("early");
    });
  }
  try {
    pool.run(std::move(tasks));
    FAIL() << "expected an exception";
  } catch (const std::logic_error& e) {
    EXPECT_STREQ(e.what(), "early");
  }
  EXPECT_EQ(completed.load(), 8);
}

TEST_F(TaskPoolTest, NestedRunExecutesInline) {
  TaskPool pool(2);
  std::atomic<int> inner{0};
  std::atomic<bool> saw_guard{false};
  pool.run({[&] {
    EXPECT_TRUE(TaskPool::on_worker_thread());
    saw_guard.store(true);
    // Nested batch must run inline on this thread, not deadlock the pool.
    pool.run({[&] { inner.fetch_add(1); }, [&] { inner.fetch_add(1); }});
  }});
  EXPECT_TRUE(saw_guard.load());
  EXPECT_EQ(inner.load(), 2);
  EXPECT_FALSE(TaskPool::on_worker_thread());
}

TEST_F(TaskPoolTest, ReserveGrowsButNeverShrinks) {
  TaskPool pool(1);
  pool.reserve(3);
  EXPECT_EQ(pool.size(), 3u);
  pool.reserve(2);
  EXPECT_EQ(pool.size(), 3u);
}

TEST_F(TaskPoolTest, SequentialBatchesReuseWorkers) {
  TaskPool pool(2);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> hits{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 5; ++i) tasks.push_back([&] { hits.fetch_add(1); });
    pool.run(std::move(tasks));
    EXPECT_EQ(hits.load(), 5);
  }
}

TEST_F(TaskPoolTest, RunPropagatesTheSubmittersTraceContext) {
  TaskPool pool(3);
  obs::TraceRecorder rec(256);
  obs::Histogram& wait = obs::MetricsRegistry::global().histogram(
      "auric_pool_submit_wait_ms", obs::default_latency_bounds_ms(),
      "submit-to-start wait of TaskPool tasks");
  const std::uint64_t wait0 = wait.count();
  obs::TraceId trace;
  std::uint64_t root_id = 0;
  std::atomic<int> mismatches{0};
  {
    obs::ScopedSpan root("root", rec);
    trace = root.trace();
    root_id = root.id();
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back([&] {
        if (obs::current_trace_context().trace_id != trace) mismatches.fetch_add(1);
        obs::ScopedSpan task_span("task", rec);
        if (task_span.trace() != trace) mismatches.fetch_add(1);
      });
    }
    pool.run(std::move(tasks));
  }
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(wait.count(), wait0 + 16);  // one submit-to-start wait per task
  const std::vector<obs::SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 17u);
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.trace, trace) << s.name;
    if (s.name == "task") {
      EXPECT_EQ(s.parent, root_id);
    }
  }
}

TEST_F(TaskPoolTest, NestedParallelForReestablishesTheSubmittersContext) {
  // The acceptance shape for one sharded replay day: a root span, a
  // parallel_for fan-out, and a nested parallel_for inside each task (runs
  // inline under the guard). Every span on every thread must land in the
  // root's trace, parented under the submitting span.
  set_worker_count(4);
  obs::TraceRecorder rec(1024);
  obs::TraceId trace;
  std::atomic<int> mismatches{0};
  {
    obs::ScopedSpan root("root", rec);
    trace = root.trace();
    parallel_for(8, [&](std::size_t) {
      if (obs::current_trace_context().trace_id != trace) mismatches.fetch_add(1);
      obs::ScopedSpan outer("task.outer", rec);
      parallel_for(4, [&](std::size_t) {
        if (obs::current_trace_context().trace_id != trace) mismatches.fetch_add(1);
        obs::ScopedSpan inner("task.inner", rec);
        if (inner.trace() != trace) mismatches.fetch_add(1);
      });
    });
  }
  EXPECT_EQ(mismatches.load(), 0);
  const std::vector<obs::SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 1u + 8u + 32u);
  std::size_t inner_count = 0;
  for (const obs::SpanRecord& s : spans) {
    EXPECT_EQ(s.trace, trace) << s.name;
    if (s.name == "task.inner") {
      ++inner_count;
      // The inner span's parent is a task.outer span (same trace tree).
      const auto parent =
          std::find_if(spans.begin(), spans.end(),
                       [&](const obs::SpanRecord& p) { return p.id == s.parent; });
      ASSERT_NE(parent, spans.end());
      EXPECT_EQ(parent->name, "task.outer");
    }
  }
  EXPECT_EQ(inner_count, 32u);
}

}  // namespace
}  // namespace auric::util
