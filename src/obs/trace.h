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
// The ring buffer is bounded: once full, the oldest completed span is
// overwritten and dropped() counts the loss — tracing must never grow
// memory without bound in a long operational run.
//
// Tail-based retention rides on top of the ring: while a trace is open its
// spans are buffered per trace id, and when the trace finalizes (its
// starting span closes, or a server finalizes an adopted trace) the whole
// trace is either kept — slow beyond TailOptions::min_ms, or marked as an
// error — in a second bounded ring, or discarded. Fast, healthy traces
// cost a buffered copy and nothing more; the interesting ones stay
// queryable via /tracez?trace_id= / ?min_ms= long after the live ring has
// wrapped.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/trace_context.h"

namespace auric::obs {

/// One completed span. parent == 0 means a root span (an adopted remote
/// parent id is recorded verbatim, so it may not name a local span).
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

class ScopedSpan;

/// Tail-retention policy: which finalized traces survive into the kept
/// ring. Error-marked traces are always kept.
struct TailOptions {
  /// Keep traces at least this slow (wall-clock of the whole span tree).
  double min_ms = 100.0;
  /// Kept traces retained (oldest evicted first).
  std::size_t capacity = 64;
  /// Open traces buffered at once; beyond this the oldest pending trace is
  /// discarded unfinalized (a trace that never finalizes must not leak).
  std::size_t max_pending = 256;
};

/// One finalized, retained trace.
struct KeptTrace {
  TraceId trace;
  double duration_ms = 0.0;
  bool error = false;
  std::vector<SpanRecord> spans;  ///< completion order
};

class TraceRecorder {
 public:
  /// The process-wide recorder ScopedSpan uses by default.
  static TraceRecorder& global();

  explicit TraceRecorder(std::size_t capacity = 65536);
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
  /// traces for tests.
  void clear();

  // --- tail-based retention ---

  void set_tail_options(const TailOptions& options);
  TailOptions tail_options() const;

  /// Flags the calling thread's current trace as an error: it will be kept
  /// at finalize regardless of duration. No-op without an active trace.
  void mark_trace_error();

  /// Decides keep/drop for a buffered trace and clears its pending state.
  /// ScopedSpan calls this automatically for traces it started; servers
  /// call it for traces adopted from a traceparent header. Unknown ids are
  /// ignored.
  void finalize_trace(const TraceId& id);

  /// Kept traces, oldest first.
  std::vector<KeptTrace> kept_traces() const;
  /// Kept traces evicted after the kept ring filled.
  std::uint64_t kept_dropped() const;

 private:
  friend class ScopedSpan;

  std::uint64_t next_id() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  TraceId new_trace_id() { return TraceId{0, next_trace_.fetch_add(1, std::memory_order_relaxed)}; }
  std::uint64_t now_ns() const;
  void record(SpanRecord&& span);

  struct PendingTrace {
    std::vector<SpanRecord> spans;
    bool error = false;
    std::uint64_t seq = 0;  ///< creation order, for bounded eviction
  };
  struct TraceIdHash {
    std::size_t operator()(const TraceId& id) const {
      return static_cast<std::size_t>(id.lo ^ (id.hi * 0x9E3779B97F4A7C15ULL));
    }
  };

  /// Appends to the pending buffer of span.trace (caller holds mu_).
  void buffer_pending(const SpanRecord& span);

  const std::size_t capacity_;
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_trace_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;   ///< insertion ring; size() < capacity_ until full
  std::size_t ring_head_ = 0;      ///< next overwrite position once full
  std::uint64_t dropped_ = 0;
  std::uint64_t epoch_ns_ = 0;     ///< steady-clock origin for start/end_ns
  std::uint32_t next_thread_ = 1;  ///< dense thread index allocator

  TailOptions tail_;
  std::unordered_map<TraceId, PendingTrace, TraceIdHash> pending_;
  std::uint64_t pending_seq_ = 0;
  std::deque<KeptTrace> kept_;
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
/// A span opened with no active trace starts one and finalizes it (for
/// tail retention) when it closes.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      TraceRecorder& recorder = TraceRecorder::global());
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// 0 when the recorder was disabled at construction.
  std::uint64_t id() const { return id_; }
  /// The trace this span joined (invalid when disabled).
  TraceId trace() const { return trace_; }

 private:
  TraceRecorder* recorder_ = nullptr;  ///< null when disabled
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t start_ns_ = 0;
  TraceId trace_;
  bool started_trace_ = false;  ///< this span allocated the trace id
  TraceContext prev_;           ///< context to restore at destruction
  std::string name_;
};

}  // namespace auric::obs
