// Structured span tracing: RAII spans with parent/child ids recorded into a
// bounded ring buffer, dumpable as a JSONL trace journal.
//
// A span is one timed region (a launch, a push, an engine relearn, a replay
// day). Spans opened while another span is open on the same thread become
// its children, so a dumped trace reconstructs the call tree:
//
//   {"id":3,"parent":2,"trace":"00..01","name":"replay.launch",...}
//
// Every span belongs to a trace (trace_context.h): the first span opened
// with no active context starts a new trace; spans opened under an adopted
// context (a pool task, a request with a traceparent header) join the
// submitter's trace. Ids are assigned at span start from per-recorder
// counters that clear() resets, so a single-threaded run produces a
// deterministic id sequence — tests assert on exact span trees. Timestamps
// are monotonic (steady_clock), measured from the recorder's epoch.
//
// The ring is one array of fixed-size CompactSpan records, allocated once
// when the recorder is built: recording a span copies 56 bytes in one short
// critical section and allocates nothing. Names are interned into a bounded
// table, so a record carries a 4-byte name id; SpanRecord, with its string
// name, is built only on the read paths. Once full, the oldest span is
// overwritten and dropped() counts the loss — tracing must never grow
// memory without bound in a long operational run.
//
// Tail-based retention rides on top of the ring: a trace's root span notes
// the ring position at its start, and when it closes it decides keep or
// drop from its own duration and the error mark on its thread. A kept
// trace — slow beyond TailOptions::min_ms, or marked as an error — copies
// its own records from the ring range written during its lifetime into a
// second bounded ring; a dropped one copies nothing. The interesting traces
// stay queryable via /tracez?trace_id= / ?min_ms= long after the live ring
// has wrapped.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/trace_context.h"

namespace auric::obs {

/// One completed span, as the read paths export it. parent == 0 means a
/// root span (an adopted remote parent id is recorded verbatim, so it may
/// not name a local span).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  TraceId trace;
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Small dense per-thread index (first thread to record is 1), stable for
  /// the recorder's lifetime; NOT the OS thread id.
  std::uint32_t thread = 0;
};

/// One JSONL rendering shared by the live ring and the kept-trace ring.
std::string spans_jsonl(const std::vector<SpanRecord>& spans);

/// Index into a recorder's span-name table (TraceRecorder::intern).
using SpanNameId = std::uint32_t;

class SpanNameTable;
class ScopedSpan;

/// Tail-retention policy: which finalized traces survive into the kept
/// ring. Error-marked traces are always kept.
struct TailOptions {
  /// Keep traces whose root span is at least this slow.
  double min_ms = 100.0;
  /// Kept traces retained (oldest evicted first).
  std::size_t capacity = 64;
};

/// One finalized, retained trace.
struct KeptTrace {
  TraceId trace;
  double duration_ms = 0.0;
  bool error = false;
  std::vector<SpanRecord> spans;  ///< completion order
  /// Ring records written during the trace's lifetime that the live ring
  /// overwrote before its root closed: a trace longer than the ring keeps
  /// only its newest records.
  std::uint64_t truncated = 0;
};

class TraceRecorder {
 public:
  /// The process-wide recorder ScopedSpan uses by default.
  static TraceRecorder& global();

  explicit TraceRecorder(std::size_t capacity = 65536);
  ~TraceRecorder();
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Disabled recorders make ScopedSpan a no-op (a couple of branches).
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::size_t capacity() const { return capacity_; }

  /// Completed spans, oldest first (completion order).
  std::vector<SpanRecord> records() const;

  /// Spans overwritten after the ring filled.
  std::uint64_t dropped() const;

  /// One JSON object per line, oldest first:
  /// {"id":N,"parent":N,"trace":"<32hex>","name":"...","start_ns":N,
  ///  "end_ns":N,"dur_ns":N,"thread":N}
  std::string jsonl() const;

  /// Drops all records (live and kept) and resets the id counters and
  /// epoch, so the next span is id 1 of trace ..01 at t≈0 — deterministic
  /// traces for tests. Interned names survive.
  void clear();

  /// Span names are interned in a bounded, append-only table. Past
  /// kMaxSpanNames every new name records as "obs.name_overflow".
  static constexpr std::uint32_t kMaxSpanNames = 1024;
  /// The id of prefix + suffix, for ScopedSpan's SpanNameId constructor.
  /// Lock-free once the name is interned, and builds no string.
  SpanNameId intern(std::string_view prefix, std::string_view suffix = {});
  /// Spans recorded under the overflow name after the name table filled.
  std::uint64_t name_overflows() const;

  // --- tail-based retention ---

  void set_tail_options(const TailOptions& options);
  TailOptions tail_options() const;

  /// Flags the calling thread's current trace as an error: its root keeps
  /// it regardless of duration. The mark lives on the calling thread, so
  /// call it on the root span's thread. No-op without an active trace.
  void mark_trace_error();

  /// Kept traces, oldest first.
  std::vector<KeptTrace> kept_traces() const;
  /// Kept traces evicted after the kept ring filled.
  std::uint64_t kept_dropped() const;

 private:
  friend class ScopedSpan;

  /// The ring's record: a SpanRecord with its name interned. Trivial, so
  /// the ring allocates without touching its pages.
  struct CompactSpan {
    std::uint64_t id;
    std::uint64_t parent;
    std::uint64_t trace_hi;
    std::uint64_t trace_lo;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint32_t thread;
    SpanNameId name;
  };
  static_assert(sizeof(CompactSpan) == 56 && std::is_trivial_v<CompactSpan>);

  struct Kept {
    TraceId trace;
    double duration_ms = 0.0;
    bool error = false;
    std::uint64_t truncated = 0;
    std::vector<CompactSpan> spans;
  };

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  TraceId new_trace_id() { return TraceId{0, next_trace_.fetch_add(1, std::memory_order_relaxed)}; }
  std::uint64_t now_ns() const;
  /// Spans written since clear(); a root notes it at its start.
  std::uint64_t ring_position() const { return written_.load(std::memory_order_relaxed); }
  /// Appends one span. A root then keeps its trace — the records of its
  /// trace in the ring range [ring_start, now) — if it was slow or marked.
  void record(CompactSpan span, bool root, std::uint64_t ring_start, bool error);
  std::vector<SpanRecord> expand(const std::vector<CompactSpan>& spans) const;

  const std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_trace_{1};
  const std::unique_ptr<SpanNameTable> names_;
  mutable std::mutex mu_;
  const std::unique_ptr<CompactSpan[]> ring_;  ///< capacity_ records, allocated once
  std::atomic<std::uint64_t> written_{0};      ///< written under mu_; slot = written_ % capacity_
  std::uint64_t epoch_ns_ = 0;     ///< steady-clock origin for start/end_ns
  std::uint32_t next_thread_ = 1;  ///< dense thread index allocator

  TailOptions tail_;
  std::vector<Kept> kept_;  ///< oldest first; reserved so a push never reallocates
  std::uint64_t kept_dropped_ = 0;
};

/// Writes recorder.jsonl() to `path`; throws std::runtime_error on failure.
void write_trace_file(const TraceRecorder& recorder, const std::string& path);

/// Body for GET /tracez. No query: the live ring as JSONL (back-compat).
/// "trace_id=<32 hex>": every span with that trace id, from the live ring
/// and the kept ring (kept copy wins on duplicates). "min_ms=N": spans of
/// every kept trace at least that slow. Unknown ids / no matches yield an
/// empty body.
std::string tracez_text(const TraceRecorder& recorder, std::string_view query);

/// RAII span: records [construction, destruction) into the recorder. The
/// innermost live ScopedSpan on this thread becomes the parent of any span
/// opened inside it (across recorders too — one trace context per thread).
/// A span opened with no active trace starts one and, as its root, decides
/// tail retention for it when it closes.
class ScopedSpan {
 public:
  /// kTraceRoot makes a span its trace's root even under an adopted
  /// context: a server's edge span for a request with a traceparent.
  enum Role { kAuto, kTraceRoot };

  explicit ScopedSpan(std::string_view name,
                      TraceRecorder& recorder = TraceRecorder::global());
  /// `name` from recorder.intern().
  ScopedSpan(SpanNameId name, TraceRecorder& recorder, Role role);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when the recorder was disabled at construction.
  std::uint64_t id() const { return id_; }
  /// The trace this span joined (invalid when disabled).
  TraceId trace() const { return trace_; }

 private:
  void start(TraceRecorder& recorder, SpanNameId name, Role role);

  TraceRecorder* recorder_ = nullptr;  ///< null when disabled
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  TraceId trace_;
  TraceContext prev_;  ///< context to restore at destruction
  SpanNameId name_ = 0;
  bool root_ = false;  ///< decides tail retention at destruction
  std::uint64_t ring_start_ = 0;  ///< root only: ring position at start
};

}  // namespace auric::obs
