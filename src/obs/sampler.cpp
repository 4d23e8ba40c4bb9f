#include "obs/sampler.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>

namespace auric::obs {

namespace {

// Renders a label set the way selectors are written: {k="v",k2="v2"}.
std::string labels_text(const Labels& labels) {
  if (labels.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += key;
    out += "=\"";
    out += value;
    out += '"';
  }
  out += '}';
  return out;
}

// CSV-quotes a cell when it contains a comma, quote, or newline.
std::string csv_cell(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) {
    return text;
  }
  std::string out = "\"";
  for (char c : text) {
    if (c == '"') {
      out += '"';
    }
    out += c;
  }
  out += '"';
  return out;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

SeriesSelector SeriesSelector::parse(std::string_view text) {
  SeriesSelector out;
  std::size_t brace = text.find('{');
  std::string_view name_part = brace == std::string_view::npos ? text : text.substr(0, brace);
  // Trim surrounding whitespace from the metric name.
  while (!name_part.empty() && std::isspace(static_cast<unsigned char>(name_part.front()))) {
    name_part.remove_prefix(1);
  }
  while (!name_part.empty() && std::isspace(static_cast<unsigned char>(name_part.back()))) {
    name_part.remove_suffix(1);
  }
  if (name_part.empty()) {
    throw std::invalid_argument("series selector has no metric name: '" + std::string(text) + "'");
  }
  out.name = std::string(name_part);
  if (brace == std::string_view::npos) {
    return out;
  }
  if (text.back() != '}') {
    throw std::invalid_argument("series selector missing closing '}': '" + std::string(text) + "'");
  }
  std::string_view body = text.substr(brace + 1, text.size() - brace - 2);
  std::size_t pos = 0;
  while (pos < body.size()) {
    while (pos < body.size() && (std::isspace(static_cast<unsigned char>(body[pos])) || body[pos] == ',')) {
      ++pos;
    }
    if (pos >= body.size()) {
      break;
    }
    std::size_t eq = body.find('=', pos);
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("series selector label missing '=': '" + std::string(text) + "'");
    }
    std::string key(body.substr(pos, eq - pos));
    while (!key.empty() && std::isspace(static_cast<unsigned char>(key.back()))) {
      key.pop_back();
    }
    if (key.empty()) {
      throw std::invalid_argument("series selector has empty label key: '" + std::string(text) + "'");
    }
    pos = eq + 1;
    while (pos < body.size() && std::isspace(static_cast<unsigned char>(body[pos]))) {
      ++pos;
    }
    if (pos >= body.size() || body[pos] != '"') {
      throw std::invalid_argument("series selector label value must be quoted: '" + std::string(text) +
                                  "'");
    }
    ++pos;
    std::string value;
    bool closed = false;
    while (pos < body.size()) {
      char c = body[pos++];
      if (c == '\\' && pos < body.size()) {
        value += body[pos++];
        continue;
      }
      if (c == '"') {
        closed = true;
        break;
      }
      value += c;
    }
    if (!closed) {
      throw std::invalid_argument("series selector label value unterminated: '" + std::string(text) +
                                  "'");
    }
    out.labels.emplace_back(std::move(key), std::move(value));
  }
  std::sort(out.labels.begin(), out.labels.end());
  return out;
}

bool SeriesSelector::matches(const MetricSample& sample) const {
  if (sample.name != name) {
    return false;
  }
  for (const auto& want : labels) {
    bool found = false;
    for (const auto& have : sample.labels) {
      if (have.first == want.first) {
        if (have.second != want.second) {
          return false;
        }
        found = true;
        break;
      }
    }
    if (!found) {
      return false;
    }
  }
  return true;
}

std::string SeriesSelector::str() const { return name + labels_text(labels); }

Sampler::Sampler(const MetricsRegistry& registry, Options options)
    : registry_(&registry), options_(options) {
  if (options_.capacity == 0) {
    options_.capacity = 1;
  }
}

Sampler::~Sampler() { stop(); }

void Sampler::tick(double t) {
  if (pre_tick_) {
    pre_tick_();
  }
  tick_with(t, registry_->snapshot());
}

void Sampler::tick_with(double t, std::vector<MetricSample> samples) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!ring_.empty() && t <= newest().t) {
      throw std::invalid_argument("sampler tick time must be strictly increasing");
    }
    ++ticks_;
    SamplePoint point{t, std::move(samples)};
    if (ring_.size() < options_.capacity) {
      ring_.push_back(std::move(point));
    } else {
      ring_[head_] = std::move(point);
      head_ = (head_ + 1) % ring_.size();
    }
  }
  if (on_tick_) {
    on_tick_(t);
  }
}

void Sampler::set_pre_tick(std::function<void()> hook) { pre_tick_ = std::move(hook); }

void Sampler::set_on_tick(std::function<void(double)> hook) { on_tick_ = std::move(hook); }

void Sampler::start() {
  if (options_.interval_ms <= 0 || running_.load()) {
    return;
  }
  stop_requested_.store(false);
  running_.store(true);
  thread_ = std::thread([this] { run_loop(); });
}

void Sampler::stop() {
  stop_requested_.store(true);
  if (thread_.joinable()) {
    thread_.join();
  }
  running_.store(false);
}

bool Sampler::running() const { return running_.load(); }

void Sampler::run_loop() {
  const auto start = std::chrono::steady_clock::now();
  const auto interval =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(options_.interval_ms));
  auto next = start + interval;
  while (!stop_requested_.load()) {
    std::this_thread::sleep_until(next);
    if (stop_requested_.load()) {
      break;
    }
    double t = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    tick(t);
    next += interval;
    // A stall longer than one interval resynchronizes instead of burst-firing
    // catch-up ticks.
    auto now = std::chrono::steady_clock::now();
    if (next < now) {
      next = now + interval;
    }
  }
  running_.store(false);
}

const SamplePoint& Sampler::at(std::size_t i) const {
  // head_ stays 0 until the ring fills, so one expression serves both states.
  return ring_[(head_ + i) % ring_.size()];
}

const SamplePoint& Sampler::newest() const { return at(ring_.size() - 1); }

std::size_t Sampler::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ring_.size();
}

std::uint64_t Sampler::ticks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ticks_;
}

std::optional<double> Sampler::last_time() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) {
    return std::nullopt;
  }
  return newest().t;
}

namespace {

// Sums the selected scalar (counter count / gauge level) in one snapshot;
// nullopt when nothing matches.
std::optional<double> scalar_in(const SamplePoint& point, const SeriesSelector& selector) {
  bool any = false;
  double total = 0.0;
  for (const MetricSample& sample : point.samples) {
    if (sample.kind == MetricSample::Kind::kHistogram || !selector.matches(sample)) {
      continue;
    }
    any = true;
    total += sample.value;
  }
  if (any) {
    return total;
  }
  return std::nullopt;
}

}  // namespace

std::vector<SamplePoint> Sampler::points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SamplePoint> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(at(i));
  }
  return out;
}

std::optional<double> Sampler::value(const SeriesSelector& selector) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) {
    return std::nullopt;
  }
  return scalar_in(newest(), selector);
}

std::optional<double> Sampler::rate(const SeriesSelector& selector, double window_s) const {
  // Walks the ring in place: rate() runs on every rule-engine tick, and
  // copying 600 snapshots per call is the difference between a negligible
  // and a noticeable sampling plane.
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = ring_.size();
  if (n < 2 || window_s <= 0) {
    return std::nullopt;
  }
  const SamplePoint& latest = newest();
  // Oldest snapshot still inside [latest.t - window_s, latest.t); fall back
  // to the immediately preceding snapshot when the window is narrower than
  // one sampling interval. The ring is time-ordered oldest first, so the
  // first point inside the window is the oldest one.
  const SamplePoint* oldest = &at(n - 2);
  for (std::size_t i = 0; i < n; ++i) {
    const SamplePoint& p = at(i);
    if (p.t >= latest.t - window_s && p.t < latest.t) {
      oldest = &p;
      break;
    }
  }
  std::optional<double> v_new = scalar_in(latest, selector);
  std::optional<double> v_old = scalar_in(*oldest, selector);
  if (!v_new || !v_old) {
    return std::nullopt;
  }
  double dt = latest.t - oldest->t;
  if (dt <= 0) {
    return std::nullopt;
  }
  return std::max(0.0, (*v_new - *v_old) / dt);
}

std::optional<double> Sampler::quantile(const SeriesSelector& selector, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.empty()) {
    return std::nullopt;
  }
  for (const MetricSample& sample : newest().samples) {
    if (sample.kind != MetricSample::Kind::kHistogram || !selector.matches(sample)) {
      continue;
    }
    double v = histogram_quantile(sample, q);
    if (v != v) {  // NaN: histogram exists but has no observations yet
      return std::nullopt;
    }
    return v;
  }
  return std::nullopt;
}

std::string Sampler::series_csv() const {
  std::vector<SamplePoint> pts = points();

  // Column plan: every (name, labels) series seen anywhere in the ring, in
  // sorted order. Counters get value + :rate, gauges value, histograms
  // :count/:p50/:p90/:p99.
  struct SeriesInfo {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
  };
  std::map<std::string, SeriesInfo> series;
  for (const SamplePoint& p : pts) {
    for (const MetricSample& s : p.samples) {
      series.emplace(s.name + labels_text(s.labels), SeriesInfo{s.kind});
    }
  }

  std::string out = "t_s";
  for (const auto& [key, info] : series) {
    switch (info.kind) {
      case MetricSample::Kind::kCounter:
        out += ',' + csv_cell(key);
        out += ',' + csv_cell(key + ":rate");
        break;
      case MetricSample::Kind::kGauge:
        out += ',' + csv_cell(key);
        break;
      case MetricSample::Kind::kHistogram:
        out += ',' + csv_cell(key + ":count");
        out += ',' + csv_cell(key + ":p50");
        out += ',' + csv_cell(key + ":p90");
        out += ',' + csv_cell(key + ":p99");
        break;
    }
  }
  out += '\n';

  // Previous-row values for the counter :rate columns.
  std::map<std::string, double> prev;
  double prev_t = 0.0;
  bool have_prev = false;
  for (const SamplePoint& p : pts) {
    std::map<std::string, const MetricSample*> row;
    for (const MetricSample& s : p.samples) {
      row[s.name + labels_text(s.labels)] = &s;
    }
    out += format_double(p.t);
    for (const auto& [key, info] : series) {
      auto it = row.find(key);
      const MetricSample* s = it == row.end() ? nullptr : it->second;
      switch (info.kind) {
        case MetricSample::Kind::kCounter: {
          out += ',';
          if (s != nullptr) {
            out += format_double(s->value);
          }
          out += ',';
          if (s != nullptr && have_prev && p.t > prev_t) {
            auto pit = prev.find(key);
            if (pit != prev.end()) {
              out += format_double(std::max(0.0, (s->value - pit->second) / (p.t - prev_t)));
            }
          }
          break;
        }
        case MetricSample::Kind::kGauge:
          out += ',';
          if (s != nullptr) {
            out += format_double(s->value);
          }
          break;
        case MetricSample::Kind::kHistogram: {
          out += ',';
          if (s != nullptr) {
            out += format_double(static_cast<double>(s->count));
          }
          for (double q : {0.5, 0.9, 0.99}) {
            out += ',';
            if (s != nullptr && s->count > 0) {
              out += format_double(histogram_quantile(*s, q));
            }
          }
          break;
        }
      }
    }
    out += '\n';
    prev.clear();
    for (const auto& [key, sample] : row) {
      if (sample->kind != MetricSample::Kind::kHistogram) {
        prev[key] = sample->value;
      }
    }
    prev_t = p.t;
    have_prev = true;
  }
  return out;
}

void Sampler::write_series_csv(const std::string& path) const {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw std::runtime_error("cannot open series csv for writing: " + path);
  }
  file << series_csv();
  if (!file.good()) {
    throw std::runtime_error("failed writing series csv: " + path);
  }
}

void Sampler::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();
  head_ = 0;
  ticks_ = 0;
}

}  // namespace auric::obs
