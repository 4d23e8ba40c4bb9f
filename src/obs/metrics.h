// Process-wide metrics: counters, gauges and fixed-boundary histograms.
//
// The SmartLaunch deployment story (§6 of the paper) depends on operators
// seeing what the recommender and launch pipeline are doing — breaker trips,
// retry storms, rollback causes, relearn latency. This registry is the one
// place those measurements accumulate:
//
//   hot path     increment/observe is a handful of relaxed atomic ops; no
//                locks, no allocation. Call sites resolve their instrument
//                once (registry lookup takes a mutex) and keep the reference
//                — instruments are never destroyed while the registry lives,
//                so cached references stay valid forever.
//   labels       optional key/value pairs; each distinct label set is its
//                own instrument (auric_push_outcomes_total{outcome="..."}).
//   export       snapshot() returns a deterministic, sorted view; the
//                prometheus_text() / csv_text() / json_text() renderings and
//                write_metrics_file() feed scrapers and bench ingestion.
//
// This library sits BELOW util (util::log routes error counts here), so it
// depends on nothing but the standard library and header-only util/render.h.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/trace_context.h"

namespace auric::obs {

/// Label key/value pairs. Stored sorted by key; at most a handful per
/// instrument (metric cardinality is a budget, not a dumping ground).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value (breaker state, queue depth).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }
  std::atomic<double> value_{0.0};
};

/// The last observation that landed in one histogram bucket, tagged with
/// the trace it belonged to — the OpenMetrics exemplar. An invalid trace_id
/// means "no exemplar yet" (the bucket never saw an observation under an
/// active trace).
struct HistogramExemplar {
  double value = 0.0;
  TraceId trace_id;
};

/// Fixed-boundary histogram with Prometheus `le` semantics: bucket i counts
/// observations <= bounds[i], plus one overflow bucket. Boundaries are fixed
/// at registration so observe() is a binary search plus two relaxed
/// fetch_adds — no locks.
///
/// Exemplars are opt-in (enable_exemplars()): when on, observe() also
/// stores the (value, current trace id) pair into the bucket it hit, so a
/// scraped p99 bucket links directly to a kept trace. The exemplar write
/// takes a tiny spinlock; the disabled path costs one relaxed load.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> bounds);
  ~Histogram();

  void observe(double v) noexcept;

  /// Starts recording per-bucket (value, trace_id) exemplars. Idempotent;
  /// call once at instrument-resolution time, before hot-path traffic.
  void enable_exemplars();
  bool exemplars_enabled() const noexcept {
    return exemplars_.load(std::memory_order_acquire) != nullptr;
  }
  /// Per-bucket exemplars, size bounds().size() + 1; empty when disabled.
  std::vector<HistogramExemplar> exemplars() const;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size bounds().size() + 1.
  std::vector<std::uint64_t> bucket_counts() const;
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void reset() noexcept;
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// Lazily allocated at enable_exemplars(), freed only with the histogram
  /// (cached references stay valid); guarded by ex_lock_.
  std::atomic<HistogramExemplar*> exemplars_{nullptr};
  mutable std::atomic_flag ex_lock_ = ATOMIC_FLAG_INIT;
};

/// Latency buckets in milliseconds (sub-ms to 10s), shared by the push /
/// backoff / checkpoint histograms so dashboards line up.
const std::vector<double>& default_latency_bounds_ms();

/// Duration buckets in seconds (1ms to 60s) for coarse phases (engine
/// relearn, bench phases).
const std::vector<double>& default_seconds_bounds();

/// One instrument in a snapshot. Counters/gauges fill `value`; histograms
/// fill bounds/buckets/count/sum.
struct MetricSample {
  enum class Kind { kCounter = 0, kGauge, kHistogram };
  Kind kind = Kind::kCounter;
  std::string name;
  std::string help;
  Labels labels;
  double value = 0.0;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  ///< non-cumulative, bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Per-bucket exemplars (bounds.size() + 1); empty unless the histogram
  /// has exemplars enabled.
  std::vector<HistogramExemplar> exemplars;
};

const char* metric_kind_name(MetricSample::Kind kind);

/// The q-quantile (0 <= q <= 1) of a histogram sample, estimated with
/// linear interpolation inside the fixed bucket boundaries (the Prometheus
/// histogram_quantile estimate): the first bucket interpolates from 0 (or
/// from its lower bound when that bound is negative), a quantile landing in
/// the overflow bucket clamps to the largest finite bound. Returns NaN for
/// a non-histogram sample or one with no observations.
double histogram_quantile(const MetricSample& sample, double q);

/// Thread-safe registry of named instruments. Registration (counter() /
/// gauge() / histogram()) takes a mutex and validates the name; re-asking
/// for the same (name, labels) returns the same instrument, so call sites
/// can idempotently resolve at startup. A name registered as one kind (or a
/// histogram re-registered with different bounds) throws
/// std::invalid_argument — metric names are a schema, not a suggestion.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every built-in instrument lives in.
  static MetricsRegistry& global();

  Counter& counter(std::string_view name, std::string_view help = "", const Labels& labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = "", const Labels& labels = {});
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds,
                       std::string_view help = "", const Labels& labels = {});

  /// Deterministic view, sorted by (name, labels).
  std::vector<MetricSample> snapshot() const;

  /// Prometheus text exposition format (HELP/TYPE lines, cumulative
  /// histogram buckets with le labels, +Inf bucket, _sum/_count).
  std::string prometheus_text() const;
  /// One row per scalar: kind,name,labels,field,value. Histograms emit one
  /// row per bucket plus sum and count.
  std::string csv_text() const;
  /// JSON array of sample objects (for bench ingestion).
  std::string json_text() const;

  /// Zeroes every instrument's value; registrations (and outstanding
  /// references) stay valid. For tests and bench arms that need a clean
  /// slate without invalidating cached references.
  void reset_values();

  std::size_t size() const;

  /// Cardinality guard: at most this many distinct label sets may register
  /// under one metric name (default 256). A registration past the cap
  /// returns a shared unexported sink instrument of the right kind — call
  /// sites keep working, the export stays bounded — and increments
  /// obs_labels_dropped_total. The limit is a floor of 1 and applies to
  /// future registrations only.
  void set_label_limit(std::size_t limit);
  std::size_t label_limit() const;

  /// Distinct label sets currently registered under `name`.
  std::size_t label_sets(std::string_view name) const;

 private:
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    std::string name;
    std::string help;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  static std::unique_ptr<Entry> make_entry(MetricSample::Kind kind, std::string_view name,
                                           std::string_view help, Labels labels,
                                           const std::vector<double>* bounds);

  Entry& find_or_create(MetricSample::Kind kind, std::string_view name, std::string_view help,
                        const Labels& labels, const std::vector<double>* bounds);

  mutable std::mutex mu_;
  /// Keyed by name + canonical label serialization; std::map node stability
  /// plus unique_ptr keeps instrument references valid for the registry's
  /// lifetime.
  std::vector<std::unique_ptr<Entry>> entries_;
  std::size_t label_limit_ = 256;
  /// Shared overflow sinks handed out past the label cap, one per kind;
  /// live outside entries_ so they are never exported. The histogram sink
  /// keeps the bounds of the first overflowing registration.
  std::unique_ptr<Entry> sinks_[3];
};

/// Writes `registry.snapshot()` to `path`; the format follows the
/// extension: ".csv" -> CSV, ".json" -> JSON, anything else (".prom",
/// ".txt") -> Prometheus text. Throws std::runtime_error on I/O failure.
void write_metrics_file(const MetricsRegistry& registry, const std::string& path);

/// Observes wall-clock seconds into a histogram exactly once, at stop() or
/// destruction. The single timing code path for bench phase numbers: the
/// value printed is the value recorded.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& histogram)
      : histogram_(&histogram), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Seconds elapsed; observes on first call, returns the same value after.
  double stop() {
    if (histogram_ != nullptr) {
      elapsed_ = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
      histogram_->observe(elapsed_);
      histogram_ = nullptr;
    }
    return elapsed_;
  }

 private:
  Histogram* histogram_;
  std::chrono::steady_clock::time_point start_;
  double elapsed_ = 0.0;
};

}  // namespace auric::obs
