// Pins the span recorder's allocation-free path. This binary replaces the
// global operator new with a counting one, so it lives apart from test_obs:
// after warm-up, recording a serve-shaped trace that tail retention drops
// must not touch the heap, and a kept trace may allocate only its copy.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace auric::obs {
namespace {

/// The spans of one served /recommend: the listener's root and 4 children.
void serve_shaped_trace(TraceRecorder& rec, SpanNameId root_name, bool error) {
  ScopedSpan root(root_name, rec, ScopedSpan::kTraceRoot);
  { ScopedSpan request("serve.recommend", rec); }
  { ScopedSpan admission("serve.admission", rec); }
  { ScopedSpan bulkhead("serve.bulkhead", rec); }
  { ScopedSpan engine("core.recommend", rec); }
  if (error) rec.mark_trace_error();
}

TEST(TraceAlloc, DroppedServeTracesAllocateNothing) {
  TraceRecorder rec(4096);
  TailOptions tail;
  tail.min_ms = 1e9;  // tail retention on, nothing slow enough to keep
  rec.set_tail_options(tail);
  const SpanNameId root_name = rec.intern("http.", "/recommend");
  serve_shaped_trace(rec, root_name, false);  // warm-up: names, thread index

  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 10000; ++i) serve_shaped_trace(rec, root_name, false);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(rec.dropped(), 5u * 10001 - 4096);
  EXPECT_TRUE(rec.kept_traces().empty());
}

TEST(TraceAlloc, AKeptTraceAllocatesOnlyItsCopy) {
  TraceRecorder rec(4096);
  TailOptions tail;
  tail.min_ms = 1e9;
  rec.set_tail_options(tail);
  const SpanNameId root_name = rec.intern("http.", "/recommend");
  serve_shaped_trace(rec, root_name, false);

  for (int i = 0; i < 3; ++i) {
    const std::uint64_t before = g_allocations.load();
    serve_shaped_trace(rec, root_name, true);
    EXPECT_EQ(g_allocations.load() - before, 1u);  // the kept copy's span vector
  }
  const std::vector<KeptTrace> kept = rec.kept_traces();
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].spans.size(), 5u);
}

}  // namespace
}  // namespace auric::obs
