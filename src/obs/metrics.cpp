#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "util/render.h"

namespace auric::obs {

namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  const auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  for (char c : name.substr(1)) {
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  }
  return true;
}

Labels canonical_labels(const Labels& labels) {
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (!valid_label_name(sorted[i].first)) {
      throw std::invalid_argument("obs: invalid label name '" + sorted[i].first + "'");
    }
    if (i > 0 && sorted[i].first == sorted[i - 1].first) {
      throw std::invalid_argument("obs: duplicate label name '" + sorted[i].first + "'");
    }
  }
  return sorted;
}

/// Escapes a Prometheus label value (backslash, quote, newline).
std::string escape_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + escape_label_value(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

/// Like render_labels but with an extra le pair appended (histogram buckets).
std::string render_labels_le(const Labels& labels, const std::string& le) {
  std::string out = "{";
  for (const auto& [k, v] : labels) out += k + "=\"" + escape_label_value(v) + "\",";
  out += "le=\"" + le + "\"}";
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Gauge::add(double delta) noexcept {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  if (bounds_.empty()) throw std::invalid_argument("Histogram: bounds must be non-empty");
  for (std::size_t i = 1; i < bounds_.size(); ++i) {
    if (bounds_[i] <= bounds_[i - 1]) {
      throw std::invalid_argument("Histogram: bounds must be strictly increasing");
    }
  }
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

Histogram::~Histogram() { delete[] exemplars_.load(std::memory_order_acquire); }

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + v, std::memory_order_relaxed)) {
  }
  HistogramExemplar* exemplars = exemplars_.load(std::memory_order_acquire);
  if (exemplars != nullptr) {
    const TraceContext ctx = current_trace_context();
    if (ctx.trace_id.valid()) {
      while (ex_lock_.test_and_set(std::memory_order_acquire)) {
      }
      exemplars[idx] = HistogramExemplar{v, ctx.trace_id};
      ex_lock_.clear(std::memory_order_release);
    }
  }
}

void Histogram::enable_exemplars() {
  if (exemplars_.load(std::memory_order_acquire) != nullptr) return;
  while (ex_lock_.test_and_set(std::memory_order_acquire)) {
  }
  if (exemplars_.load(std::memory_order_relaxed) == nullptr) {
    // Leaked on purpose: instruments are never destroyed while the registry
    // lives, and a freed exemplar array would race lock-free readers.
    exemplars_.store(new HistogramExemplar[bounds_.size() + 1](), std::memory_order_release);
  }
  ex_lock_.clear(std::memory_order_release);
}

std::vector<HistogramExemplar> Histogram::exemplars() const {
  HistogramExemplar* exemplars = exemplars_.load(std::memory_order_acquire);
  if (exemplars == nullptr) return {};
  std::vector<HistogramExemplar> out(bounds_.size() + 1);
  while (ex_lock_.test_and_set(std::memory_order_acquire)) {
  }
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = exemplars[i];
  ex_lock_.clear(std::memory_order_release);
  return out;
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  HistogramExemplar* exemplars = exemplars_.load(std::memory_order_acquire);
  if (exemplars != nullptr) {
    while (ex_lock_.test_and_set(std::memory_order_acquire)) {
    }
    for (std::size_t i = 0; i <= bounds_.size(); ++i) exemplars[i] = HistogramExemplar{};
    ex_lock_.clear(std::memory_order_release);
  }
}

const std::vector<double>& default_latency_bounds_ms() {
  static const std::vector<double> bounds{0.5,   1.0,   2.5,    5.0,    10.0,   25.0,  50.0,
                                          100.0, 250.0, 500.0,  1000.0, 2500.0, 5000.0, 10000.0};
  return bounds;
}

const std::vector<double>& default_seconds_bounds() {
  static const std::vector<double> bounds{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
                                          0.25,  0.5,    1.0,   2.5,  5.0,   10.0, 30.0, 60.0};
  return bounds;
}

double histogram_quantile(const MetricSample& sample, double q) {
  if (sample.kind != MetricSample::Kind::kHistogram || sample.count == 0 ||
      sample.buckets.size() != sample.bounds.size() + 1) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the target observation (1-based, Prometheus convention:
  // rank q*count, clamped into [1, count]).
  const double rank = std::max(1.0, q * static_cast<double>(sample.count));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
    const std::uint64_t before = cumulative;
    cumulative += sample.buckets[i];
    if (static_cast<double>(cumulative) + 1e-12 < rank) continue;
    // The target observation sits in bucket i: interpolate linearly
    // between the bucket's bounds. The first bucket's lower bound is 0
    // unless the boundary itself is negative (then there is no better
    // anchor than the boundary).
    const double upper = sample.bounds[i];
    const double lower = i > 0 ? sample.bounds[i - 1] : std::min(0.0, upper);
    const auto in_bucket = static_cast<double>(sample.buckets[i]);
    if (in_bucket <= 0.0) return upper;
    const double fraction = (rank - static_cast<double>(before)) / in_bucket;
    return lower + (upper - lower) * std::min(1.0, std::max(0.0, fraction));
  }
  // Overflow bucket: no finite upper bound, clamp to the largest boundary.
  return sample.bounds.back();
}

const char* metric_kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

namespace {

/// The counter every over-cap registration bumps (see set_label_limit).
constexpr const char* kLabelsDroppedName = "obs_labels_dropped_total";

}  // namespace

std::unique_ptr<MetricsRegistry::Entry> MetricsRegistry::make_entry(
    MetricSample::Kind kind, std::string_view name, std::string_view help, Labels labels,
    const std::vector<double>* bounds) {
  auto entry = std::make_unique<Entry>();
  entry->kind = kind;
  entry->name = std::string(name);
  entry->help = std::string(help);
  entry->labels = std::move(labels);
  switch (kind) {
    case MetricSample::Kind::kCounter: entry->counter = std::make_unique<Counter>(); break;
    case MetricSample::Kind::kGauge: entry->gauge = std::make_unique<Gauge>(); break;
    case MetricSample::Kind::kHistogram:
      entry->histogram = std::make_unique<Histogram>(*bounds);
      break;
  }
  return entry;
}

MetricsRegistry::Entry& MetricsRegistry::find_or_create(MetricSample::Kind kind,
                                                        std::string_view name,
                                                        std::string_view help,
                                                        const Labels& labels,
                                                        const std::vector<double>* bounds) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument("obs: invalid metric name '" + std::string(name) + "'");
  }
  const Labels sorted = canonical_labels(labels);
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t label_sets = 0;
  for (const auto& entry : entries_) {
    if (entry->name != name) continue;
    if (entry->kind != kind) {
      throw std::invalid_argument("obs: metric '" + std::string(name) + "' already registered as " +
                                  metric_kind_name(entry->kind));
    }
    ++label_sets;
    if (entry->labels != sorted) continue;
    if (kind == MetricSample::Kind::kHistogram && entry->histogram->bounds() != *bounds) {
      throw std::invalid_argument("obs: histogram '" + std::string(name) +
                                  "' re-registered with different bounds");
    }
    return *entry;
  }
  if (label_sets >= label_limit_ && name != kLabelsDroppedName) {
    // Past the cardinality cap: a runaway label (carrier id, file path)
    // must not grow the export without bound. Count the drop and hand out
    // a shared sink of the right kind; the caller's increments land in the
    // sink instead of a fresh exported series.
    Entry* dropped = nullptr;
    for (const auto& entry : entries_) {
      if (entry->name == kLabelsDroppedName) {
        dropped = entry.get();
        break;
      }
    }
    if (dropped == nullptr) {
      entries_.push_back(make_entry(MetricSample::Kind::kCounter, kLabelsDroppedName,
                                    "instrument registrations dropped by the label-cardinality cap",
                                    {}, nullptr));
      dropped = entries_.back().get();
    }
    dropped->counter->inc();
    auto& sink = sinks_[static_cast<std::size_t>(kind)];
    if (sink == nullptr) sink = make_entry(kind, "obs_label_overflow_sink", "", {}, bounds);
    return *sink;
  }
  entries_.push_back(make_entry(kind, name, help, sorted, bounds));
  return *entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name, std::string_view help,
                                  const Labels& labels) {
  return *find_or_create(MetricSample::Kind::kCounter, name, help, labels, nullptr).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help,
                              const Labels& labels) {
  return *find_or_create(MetricSample::Kind::kGauge, name, help, labels, nullptr).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name, const std::vector<double>& bounds,
                                      std::string_view help, const Labels& labels) {
  return *find_or_create(MetricSample::Kind::kHistogram, name, help, labels, &bounds).histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  std::vector<MetricSample> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples.reserve(entries_.size());
    for (const auto& entry : entries_) {
      MetricSample sample;
      sample.kind = entry->kind;
      sample.name = entry->name;
      sample.help = entry->help;
      sample.labels = entry->labels;
      switch (entry->kind) {
        case MetricSample::Kind::kCounter:
          sample.value = static_cast<double>(entry->counter->value());
          break;
        case MetricSample::Kind::kGauge:
          sample.value = entry->gauge->value();
          break;
        case MetricSample::Kind::kHistogram:
          sample.bounds = entry->histogram->bounds();
          sample.buckets = entry->histogram->bucket_counts();
          sample.count = entry->histogram->count();
          sample.sum = entry->histogram->sum();
          sample.exemplars = entry->histogram->exemplars();
          break;
      }
      samples.push_back(std::move(sample));
    }
  }
  std::sort(samples.begin(), samples.end(), [](const MetricSample& a, const MetricSample& b) {
    if (a.name != b.name) return a.name < b.name;
    return a.labels < b.labels;
  });
  return samples;
}

std::string MetricsRegistry::prometheus_text() const {
  const std::vector<MetricSample> samples = snapshot();
  std::string out;
  std::string last_name;
  for (const MetricSample& s : samples) {
    if (s.name != last_name) {
      if (!s.help.empty()) out += "# HELP " + s.name + " " + s.help + "\n";
      out += "# TYPE " + s.name + " " + metric_kind_name(s.kind) + "\n";
      last_name = s.name;
    }
    if (s.kind == MetricSample::Kind::kHistogram) {
      // OpenMetrics exemplar suffix for bucket i, or "" when that bucket
      // never saw an observation under an active trace.
      const auto exemplar_suffix = [&](std::size_t i) -> std::string {
        if (i >= s.exemplars.size() || !s.exemplars[i].trace_id.valid()) return "";
        return " # {trace_id=\"" + trace_id_hex(s.exemplars[i].trace_id) + "\"} " +
               format_double(s.exemplars[i].value);
      };
      std::uint64_t cumulative = 0;
      for (std::size_t i = 0; i < s.bounds.size(); ++i) {
        cumulative += s.buckets[i];
        out += s.name + "_bucket" + render_labels_le(s.labels, format_double(s.bounds[i])) + " " +
               std::to_string(cumulative) + exemplar_suffix(i) + "\n";
      }
      cumulative += s.buckets.back();
      out += s.name + "_bucket" + render_labels_le(s.labels, "+Inf") + " " +
             std::to_string(cumulative) + exemplar_suffix(s.bounds.size()) + "\n";
      out += s.name + "_sum" + render_labels(s.labels) + " " + format_double(s.sum) + "\n";
      out += s.name + "_count" + render_labels(s.labels) + " " + std::to_string(s.count) + "\n";
    } else {
      out += s.name + render_labels(s.labels) + " " + format_double(s.value) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::csv_text() const {
  const std::vector<MetricSample> samples = snapshot();
  std::string out = "kind,name,labels,field,value\n";
  const auto row = [&](const MetricSample& s, const std::string& field,
                       const std::string& value) {
    std::string labels = render_labels(s.labels);
    // CSV-quote the label cell: it contains commas and double quotes.
    std::string quoted = "\"";
    for (char c : labels) {
      if (c == '"') quoted += '"';
      quoted += c;
    }
    quoted += '"';
    out += std::string(metric_kind_name(s.kind)) + "," + s.name + "," + quoted + "," + field +
           "," + value + "\n";
  };
  for (const MetricSample& s : samples) {
    if (s.kind == MetricSample::Kind::kHistogram) {
      for (std::size_t i = 0; i < s.bounds.size(); ++i) {
        row(s, "bucket_le_" + format_double(s.bounds[i]), std::to_string(s.buckets[i]));
      }
      row(s, "bucket_le_inf", std::to_string(s.buckets.back()));
      row(s, "sum", format_double(s.sum));
      row(s, "count", std::to_string(s.count));
    } else {
      row(s, "value", format_double(s.value));
    }
  }
  return out;
}

std::string MetricsRegistry::json_text() const {
  const std::vector<MetricSample> samples = snapshot();
  std::string out = "[\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const MetricSample& s = samples[i];
    out += "  {\"kind\":\"";
    out += metric_kind_name(s.kind);
    out += "\",\"name\":\"";
    util::append_json_escaped(out, s.name);
    out += "\",\"labels\":{";
    for (std::size_t l = 0; l < s.labels.size(); ++l) {
      if (l > 0) out += ',';
      out += '"';
      util::append_json_escaped(out, s.labels[l].first);
      out += "\":\"";
      util::append_json_escaped(out, s.labels[l].second);
      out += '"';
    }
    out += "}";
    if (s.kind == MetricSample::Kind::kHistogram) {
      out += ",\"bounds\":[";
      for (std::size_t b = 0; b < s.bounds.size(); ++b) {
        if (b > 0) out += ',';
        out += format_double(s.bounds[b]);
      }
      out += "],\"buckets\":[";
      for (std::size_t b = 0; b < s.buckets.size(); ++b) {
        if (b > 0) out += ',';
        out += std::to_string(s.buckets[b]);
      }
      out += "],\"count\":" + std::to_string(s.count) + ",\"sum\":" + format_double(s.sum);
    } else {
      out += ",\"value\":" + format_double(s.value);
    }
    out += "}";
    if (i + 1 < samples.size()) out += ',';
    out += "\n";
  }
  out += "]\n";
  return out;
}

void MetricsRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : entries_) {
    switch (entry->kind) {
      case MetricSample::Kind::kCounter: entry->counter->reset(); break;
      case MetricSample::Kind::kGauge: entry->gauge->reset(); break;
      case MetricSample::Kind::kHistogram: entry->histogram->reset(); break;
    }
  }
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricsRegistry::set_label_limit(std::size_t limit) {
  std::lock_guard<std::mutex> lock(mu_);
  label_limit_ = std::max<std::size_t>(1, limit);
}

std::size_t MetricsRegistry::label_limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return label_limit_;
}

std::size_t MetricsRegistry::label_sets(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t count = 0;
  for (const auto& entry : entries_) {
    if (entry->name == name) ++count;
  }
  return count;
}

void write_metrics_file(const MetricsRegistry& registry, const std::string& path) {
  std::string text;
  const auto ends_with = [&](const char* suffix) {
    const std::string_view sv(suffix);
    return path.size() >= sv.size() && path.compare(path.size() - sv.size(), sv.size(), sv) == 0;
  };
  if (ends_with(".csv")) {
    text = registry.csv_text();
  } else if (ends_with(".json")) {
    text = registry.json_text();
  } else {
    text = registry.prometheus_text();
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("obs: cannot open '" + path + "' for writing");
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const int rc = std::fclose(f);
  if (written != text.size() || rc != 0) {
    throw std::runtime_error("obs: short write to '" + path + "'");
  }
}

}  // namespace auric::obs
