#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "util/render.h"
#include "util/strings.h"

namespace auric::obs {

namespace {

/// Dense per-(recorder-agnostic) thread index; assigned on first span.
thread_local std::uint32_t t_thread_index = 0;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

std::string spans_jsonl(const std::vector<SpanRecord>& spans) {
  std::string out;
  std::string name;
  for (const SpanRecord& s : spans) {
    name.clear();
    util::append_json_escaped(name, s.name);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%llu,\"parent\":%llu,\"trace\":\"%s\",\"name\":\"%s\","
                  "\"start_ns\":%llu,\"end_ns\":%llu,\"dur_ns\":%llu,\"thread\":%u}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), trace_id_hex(s.trace).c_str(),
                  name.c_str(), static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns),
                  static_cast<unsigned long long>(s.end_ns - s.start_ns), s.thread);
    out += buf;
  }
  return out;
}

TraceRecorder& TraceRecorder::global() {
  static TraceRecorder* recorder = new TraceRecorder();  // never destroyed
  return *recorder;
}

TraceRecorder::TraceRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), epoch_ns_(steady_now_ns()) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

std::uint64_t TraceRecorder::now_ns() const { return steady_now_ns() - epoch_ns_; }

void TraceRecorder::buffer_pending(const SpanRecord& span) {
  if (!span.trace.valid()) return;
  auto it = pending_.find(span.trace);
  if (it == pending_.end()) {
    if (pending_.size() >= tail_.max_pending) {
      // Bound the open-trace buffer: evict the oldest pending trace
      // unfinalized. Spans of a trace that never finalizes land here and
      // must not grow memory without bound.
      auto oldest = pending_.begin();
      for (auto p = pending_.begin(); p != pending_.end(); ++p) {
        if (p->second.seq < oldest->second.seq) oldest = p;
      }
      pending_.erase(oldest);
    }
    it = pending_.emplace(span.trace, PendingTrace{}).first;
    it->second.seq = ++pending_seq_;
  }
  it->second.spans.push_back(span);
}

void TraceRecorder::record(SpanRecord&& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span.thread == 0) {
    if (t_thread_index == 0) t_thread_index = next_thread_++;
    span.thread = t_thread_index;
  }
  buffer_pending(span);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(span));
    return;
  }
  ring_[ring_head_] = std::move(span);
  ring_head_ = (ring_head_ + 1) % capacity_;
  ++dropped_;
}

std::vector<SpanRecord> TraceRecorder::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SpanRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::string TraceRecorder::jsonl() const { return spans_jsonl(records()); }

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  ring_head_ = 0;
  dropped_ = 0;
  next_id_.store(1, std::memory_order_relaxed);
  next_trace_.store(1, std::memory_order_relaxed);
  epoch_ns_ = steady_now_ns();
  pending_.clear();
  pending_seq_ = 0;
  kept_.clear();
  kept_dropped_ = 0;
}

void TraceRecorder::set_tail_options(const TailOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  tail_ = options;
  if (tail_.capacity == 0) tail_.capacity = 1;
  if (tail_.max_pending == 0) tail_.max_pending = 1;
}

TailOptions TraceRecorder::tail_options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tail_;
}

void TraceRecorder::mark_trace_error() {
  const TraceContext ctx = current_trace_context();
  if (!ctx.trace_id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(ctx.trace_id);
  if (it == pending_.end()) {
    it = pending_.emplace(ctx.trace_id, PendingTrace{}).first;
    it->second.seq = ++pending_seq_;
  }
  it->second.error = true;
}

void TraceRecorder::finalize_trace(const TraceId& id) {
  if (!id.valid()) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  PendingTrace trace = std::move(it->second);
  pending_.erase(it);
  if (trace.spans.empty()) return;
  std::uint64_t start = trace.spans.front().start_ns;
  std::uint64_t end = trace.spans.front().end_ns;
  for (const SpanRecord& s : trace.spans) {
    start = std::min(start, s.start_ns);
    end = std::max(end, s.end_ns);
  }
  const double duration_ms = static_cast<double>(end - start) / 1e6;
  if (!trace.error && duration_ms < tail_.min_ms) return;
  KeptTrace kept;
  kept.trace = id;
  kept.duration_ms = duration_ms;
  kept.error = trace.error;
  kept.spans = std::move(trace.spans);
  kept_.push_back(std::move(kept));
  while (kept_.size() > tail_.capacity) {
    kept_.pop_front();
    ++kept_dropped_;
  }
}

std::vector<KeptTrace> TraceRecorder::kept_traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {kept_.begin(), kept_.end()};
}

std::uint64_t TraceRecorder::kept_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return kept_dropped_;
}

void write_trace_file(const TraceRecorder& recorder, const std::string& path) {
  const std::string text = recorder.jsonl();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("obs: cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    throw std::runtime_error("obs: short write to '" + path + "'");
  }
}

std::string tracez_text(const TraceRecorder& recorder, std::string_view query) {
  const std::string_view wanted_id = util::query_param(query, "trace_id");
  const std::string_view min_ms_raw = util::query_param(query, "min_ms");
  if (!wanted_id.empty()) {
    const std::optional<TraceId> id = parse_trace_id_hex(wanted_id);
    if (!id.has_value()) return {};
    // Kept copy first (it has the complete trace); fill holes from the live
    // ring for traces still open or never finalized.
    std::vector<SpanRecord> spans;
    for (const KeptTrace& kt : recorder.kept_traces()) {
      if (kt.trace == *id) spans = kt.spans;
    }
    for (const SpanRecord& s : recorder.records()) {
      if (!(s.trace == *id)) continue;
      const bool seen = std::any_of(spans.begin(), spans.end(),
                                    [&](const SpanRecord& k) { return k.id == s.id; });
      if (!seen) spans.push_back(s);
    }
    return spans_jsonl(spans);
  }
  if (!min_ms_raw.empty()) {
    double min_ms = 0.0;
    try {
      min_ms = std::stod(std::string(min_ms_raw));
    } catch (const std::exception&) {
      return {};
    }
    std::string out;
    for (const KeptTrace& kt : recorder.kept_traces()) {
      if (kt.duration_ms < min_ms) continue;
      char head[128];
      std::snprintf(head, sizeof(head), "{\"trace\":\"%s\",\"dur_ms\":%.3f,\"error\":%s}\n",
                    trace_id_hex(kt.trace).c_str(), kt.duration_ms,
                    kt.error ? "true" : "false");
      out += head;
      out += spans_jsonl(kt.spans);
    }
    return out;
  }
  return recorder.jsonl();
}

ScopedSpan::ScopedSpan(std::string_view name, TraceRecorder& recorder) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  id_ = recorder.next_id();
  prev_ = current_trace_context();
  if (prev_.trace_id.valid()) {
    trace_ = prev_.trace_id;
    parent_ = prev_.span != 0 ? prev_.span : prev_.remote_parent;
  } else {
    trace_ = recorder.new_trace_id();
    started_trace_ = true;
  }
  set_current_trace_context(TraceContext{trace_, id_, 0});
  name_ = std::string(name);
  start_ns_ = recorder.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  SpanRecord span;
  span.id = id_;
  span.parent = parent_;
  span.trace = trace_;
  span.name = std::move(name_);
  span.start_ns = start_ns_;
  span.end_ns = recorder_->now_ns();
  set_current_trace_context(prev_);
  recorder_->record(std::move(span));
  if (started_trace_) recorder_->finalize_trace(trace_);
}

}  // namespace auric::obs
