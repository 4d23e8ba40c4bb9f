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

/// The trace mark_trace_error() flagged on this thread; its root span reads
/// (and clears) it at close.
thread_local TraceId t_error_trace;

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

}  // namespace

/// Bounded, append-only name interner. A lookup is lock-free (acquire loads
/// over an open-addressed index); only a name's first sighting takes the
/// insert lock and allocates its string. Past kMaxSpanNames every new name
/// maps to kOverflow and overflows_ counts those lookups.
class SpanNameTable {
 public:
  static constexpr SpanNameId kOverflow = 0;

  SpanNameTable();
  SpanNameId intern(std::string_view prefix, std::string_view suffix);
  /// Valid for every id intern() returned.
  const std::string& name(SpanNameId id) const { return names_[id]; }
  std::uint64_t overflows() const { return overflows_.load(std::memory_order_relaxed); }

 private:
  static constexpr std::uint32_t kMaxNames = TraceRecorder::kMaxSpanNames;
  static constexpr std::uint32_t kSlots = 2 * kMaxNames;  ///< load factor <= 1/2

  /// Probes for prefix + suffix; its slot (or the empty slot ending the
  /// probe) goes to *slot. Returns id + 1, or 0 when absent.
  std::uint32_t find(std::string_view prefix, std::string_view suffix, std::uint32_t* slot) const;

  std::unique_ptr<std::atomic<std::uint32_t>[]> index_;  ///< id + 1; 0 = empty
  std::unique_ptr<std::string[]> names_;
  std::mutex mu_;
  std::uint32_t count_ = 1;  ///< guarded by mu_; id 0 is the overflow name
  std::atomic<std::uint64_t> overflows_{0};
};

SpanNameTable::SpanNameTable()
    : index_(std::make_unique<std::atomic<std::uint32_t>[]>(kSlots)),
      names_(std::make_unique<std::string[]>(kMaxNames)) {
  names_[kOverflow] = "obs.name_overflow";
}

std::uint32_t SpanNameTable::find(std::string_view prefix, std::string_view suffix,
                                  std::uint32_t* slot) const {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a over prefix + suffix
  for (const std::string_view part : {prefix, suffix}) {
    for (const char c : part) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  }
  for (std::uint32_t i = 0;; ++i) {
    *slot = static_cast<std::uint32_t>(h + i) & (kSlots - 1);
    const std::uint32_t entry = index_[*slot].load(std::memory_order_acquire);
    if (entry == 0) return 0;
    const std::string& name = names_[entry - 1];
    if (name.size() == prefix.size() + suffix.size() && name.starts_with(prefix) &&
        name.ends_with(suffix)) {
      return entry;
    }
  }
}

SpanNameId SpanNameTable::intern(std::string_view prefix, std::string_view suffix) {
  std::uint32_t slot = 0;
  if (const std::uint32_t entry = find(prefix, suffix, &slot)) return entry - 1;
  std::lock_guard<std::mutex> lock(mu_);
  if (const std::uint32_t entry = find(prefix, suffix, &slot)) return entry - 1;
  if (count_ == kMaxNames) {
    overflows_.fetch_add(1, std::memory_order_relaxed);
    return kOverflow;
  }
  names_[count_].reserve(prefix.size() + suffix.size());
  names_[count_].append(prefix).append(suffix);
  index_[slot].store(count_ + 1, std::memory_order_release);
  return count_++;
}

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
    : capacity_(capacity == 0 ? 1 : capacity),
      names_(std::make_unique<SpanNameTable>()),
      ring_(new CompactSpan[capacity_]),  // trivial: pages stay untouched until written
      epoch_ns_(steady_now_ns()) {
  kept_.reserve(tail_.capacity + 1);
}

TraceRecorder::~TraceRecorder() = default;

SpanNameId TraceRecorder::intern(std::string_view prefix, std::string_view suffix) {
  return names_->intern(prefix, suffix);
}

std::uint64_t TraceRecorder::name_overflows() const {
  return names_->overflows();
}

std::uint64_t TraceRecorder::now_ns() const { return steady_now_ns() - epoch_ns_; }

void TraceRecorder::record(CompactSpan span, bool root, std::uint64_t ring_start, bool error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (t_thread_index == 0) t_thread_index = next_thread_++;
  span.thread = t_thread_index;
  const std::uint64_t end = written_.load(std::memory_order_relaxed) + 1;
  ring_[(end - 1) % capacity_] = span;
  written_.store(end, std::memory_order_relaxed);
  if (!root) return;
  const double duration_ms = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  if (!error && duration_ms < tail_.min_ms) return;
  if (ring_start > end) ring_start = 0;  // clear() ran while the root was open
  const std::uint64_t begin = std::max(ring_start, end > capacity_ ? end - capacity_ : 0);
  const auto same_trace = [&](std::uint64_t pos) {
    const CompactSpan& s = ring_[pos % capacity_];
    return s.trace_hi == span.trace_hi && s.trace_lo == span.trace_lo;
  };
  std::size_t n = 0;  // counted first, so the copy is one allocation
  for (std::uint64_t pos = begin; pos < end; ++pos) n += same_trace(pos) ? 1 : 0;
  Kept kept{{span.trace_hi, span.trace_lo}, duration_ms, error, begin - ring_start, {}};
  kept.spans.reserve(n);
  for (std::uint64_t pos = begin; pos < end; ++pos) {
    if (same_trace(pos)) kept.spans.push_back(ring_[pos % capacity_]);
  }
  kept_.push_back(std::move(kept));
  while (kept_.size() > tail_.capacity) {
    kept_.erase(kept_.begin());
    ++kept_dropped_;
  }
}

std::vector<SpanRecord> TraceRecorder::expand(const std::vector<CompactSpan>& spans) const {
  std::vector<SpanRecord> out;
  out.reserve(spans.size());
  for (const CompactSpan& s : spans) {
    out.push_back(SpanRecord{s.id, s.parent, TraceId{s.trace_hi, s.trace_lo},
                             names_->name(s.name), s.start_ns, s.end_ns, s.thread});
  }
  return out;
}

std::vector<SpanRecord> TraceRecorder::records() const {
  std::vector<CompactSpan> spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t end = written_.load(std::memory_order_relaxed);
    spans.reserve(std::min<std::uint64_t>(end, capacity_));
    for (std::uint64_t pos = end > capacity_ ? end - capacity_ : 0; pos < end; ++pos) {
      spans.push_back(ring_[pos % capacity_]);
    }
  }
  return expand(spans);
}

std::uint64_t TraceRecorder::dropped() const {
  const std::uint64_t written = ring_position();
  return written > capacity_ ? written - capacity_ : 0;
}

std::string TraceRecorder::jsonl() const { return spans_jsonl(records()); }

void TraceRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  written_.store(0, std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
  next_trace_.store(1, std::memory_order_relaxed);
  epoch_ns_ = steady_now_ns();
  kept_.clear();
  kept_dropped_ = 0;
}

void TraceRecorder::set_tail_options(const TailOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  tail_ = options;
  if (tail_.capacity == 0) tail_.capacity = 1;
  kept_.reserve(tail_.capacity + 1);
}

TailOptions TraceRecorder::tail_options() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tail_;
}

void TraceRecorder::mark_trace_error() {
  const TraceContext ctx = current_trace_context();
  if (ctx.trace_id.valid()) t_error_trace = ctx.trace_id;
}

std::vector<KeptTrace> TraceRecorder::kept_traces() const {
  std::vector<Kept> kept;
  {
    std::lock_guard<std::mutex> lock(mu_);
    kept = kept_;
  }
  std::vector<KeptTrace> out;
  out.reserve(kept.size());
  for (const Kept& k : kept) {
    out.push_back(KeptTrace{k.trace, k.duration_ms, k.error, expand(k.spans), k.truncated});
  }
  return out;
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
    std::vector<std::uint64_t> kept_ids;
    kept_ids.reserve(spans.size());
    for (const SpanRecord& k : spans) kept_ids.push_back(k.id);
    std::sort(kept_ids.begin(), kept_ids.end());
    for (const SpanRecord& s : recorder.records()) {
      if (s.trace == *id && !std::binary_search(kept_ids.begin(), kept_ids.end(), s.id)) {
        spans.push_back(s);
      }
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
  if (recorder.enabled()) start(recorder, recorder.intern(name), kAuto);
}

ScopedSpan::ScopedSpan(SpanNameId name, TraceRecorder& recorder, Role role) {
  if (recorder.enabled()) start(recorder, name, role);
}

void ScopedSpan::start(TraceRecorder& recorder, SpanNameId name, Role role) {
  recorder_ = &recorder;
  id_ = recorder.next_id();
  name_ = name;
  prev_ = current_trace_context();
  if (prev_.trace_id.valid()) {
    trace_ = prev_.trace_id;
    parent_ = prev_.span != 0 ? prev_.span : prev_.remote_parent;
  } else {
    trace_ = recorder.new_trace_id();
  }
  root_ = role == kTraceRoot || !prev_.trace_id.valid();
  if (root_) ring_start_ = recorder.ring_position();
  set_current_trace_context(TraceContext{trace_, id_, 0});
  start_ns_ = recorder.now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  const TraceRecorder::CompactSpan span{id_,       parent_, trace_.hi, trace_.lo,
                                        start_ns_, recorder_->now_ns(), 0, name_};
  set_current_trace_context(prev_);
  const bool error = root_ && t_error_trace == trace_;
  if (error) t_error_trace = TraceId{};
  recorder_->record(span, root_, ring_start_, error);
}

}  // namespace auric::obs
