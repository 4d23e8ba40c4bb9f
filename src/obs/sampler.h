// Periodic registry sampler: a bounded ring of timestamped snapshots with
// rate / last-value / quantile derivations over a trailing window.
//
// The metrics registry answers "how many, ever"; operations needs "how fast,
// right now". The Sampler scrapes MetricsRegistry::snapshot() on a cadence
// (a background thread, or manual tick(t) calls for deterministic tests) and
// keeps the last N snapshots, from which it derives
//
//   rate()      counter increase per second over a trailing window,
//   value()     last value of a counter/gauge (summed across label matches),
//   quantile()  p50/p90/p99 of a histogram via histogram_quantile(),
//
// all addressed by a SeriesSelector ("name{label=\"v\"}") — the same scalar
// the RuleEngine's alert rules reference. series_csv() dumps the whole ring
// as one wide CSV (a column per derived scalar) for EXPERIMENTS plots.
//
// Thread-safety: tick()/derivations take one mutex; the optional on-tick
// hook runs after the lock is released so it can call back into the
// derivations (the RuleEngine does exactly that).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace auric::obs {

/// One timestamped snapshot in the ring. `t` is seconds on the sampler's
/// own axis: wall-cadence ticks use seconds since start(); manual ticks use
/// whatever the caller injects (strictly increasing).
struct SamplePoint {
  double t = 0.0;
  std::vector<MetricSample> samples;  ///< sorted by (name, labels)
};

/// Addresses one scalar series: a metric name plus labels that must all
/// match (a subset match — samples may carry extra labels). Parsed from
/// `name` or `name{key="value",...}`.
struct SeriesSelector {
  std::string name;
  Labels labels;

  /// Throws std::invalid_argument on malformed syntax.
  static SeriesSelector parse(std::string_view text);

  /// True when `sample` is named `name` and carries every selector label.
  bool matches(const MetricSample& sample) const;

  std::string str() const;
};

struct SamplerOptions {
  /// Snapshots retained (default one minute of ring at the default
  /// 100 ms cadence).
  std::size_t capacity = 600;
  /// Background cadence for start(); <= 0 disables the thread.
  double interval_ms = 100.0;
};

class Sampler {
 public:
  using Options = SamplerOptions;

  explicit Sampler(const MetricsRegistry& registry = MetricsRegistry::global(),
                   Options options = {});
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  const Options& options() const { return options_; }

  /// Takes one snapshot at time `t` (seconds, strictly increasing; a
  /// non-increasing t throws std::invalid_argument). Deterministic driver
  /// for tests and single-threaded callers.
  void tick(double t);

  /// Appends a prebuilt snapshot instead of scraping the registry — tick()
  /// ends here, and unit tests drive the rate/quantile math with
  /// hand-computed fixtures through it.
  void tick_with(double t, std::vector<MetricSample> samples);

  /// Hooks run around every tick: pre fires in tick() before the registry
  /// is scraped (refresh derived gauges so they are IN the snapshot; an
  /// injected snapshot has nothing to refresh), post fires after the ring
  /// is updated, outside the lock.
  void set_pre_tick(std::function<void()> hook);
  void set_on_tick(std::function<void(double t)> hook);

  /// Starts the background thread (no-op when interval_ms <= 0 or already
  /// running); stop() joins it. The destructor stops implicitly.
  void start();
  void stop();
  bool running() const;

  std::size_t size() const;
  std::uint64_t ticks() const;
  /// Time of the newest snapshot; nullopt when the ring is empty.
  std::optional<double> last_time() const;

  /// Last value of the selected series, summed over matching samples
  /// (counters report their cumulative count, gauges their level).
  std::optional<double> value(const SeriesSelector& selector) const;

  /// Counter increase per second over the trailing `window_s`, measured
  /// between the newest snapshot and the oldest snapshot inside the window
  /// (falling back to the immediately preceding snapshot when the window
  /// holds only the newest one). Needs >= 2 snapshots; counter resets clamp
  /// to 0 rather than reporting a negative rate.
  std::optional<double> rate(const SeriesSelector& selector, double window_s) const;

  /// histogram_quantile() of the first matching histogram in the newest
  /// snapshot.
  std::optional<double> quantile(const SeriesSelector& selector, double q) const;

  /// The ring, oldest first.
  std::vector<SamplePoint> points() const;

  /// Wide CSV: one row per snapshot, a `t_s` column plus, per series seen
  /// anywhere in the ring, `name{labels}` (counter/gauge value) and — for
  /// histograms — `:count`, `:p50`, `:p90`, `:p99` columns. Counters also
  /// get a `:rate` column (per-second increase vs. the previous snapshot).
  /// Header cells are CSV-quoted (label sets contain commas).
  std::string series_csv() const;

  /// Writes series_csv() to `path`; throws std::runtime_error on failure.
  void write_series_csv(const std::string& path) const;

  void clear();

 private:
  /// The i-th snapshot, oldest first, and the newest; callers hold mu_ and
  /// the ring is non-empty.
  const SamplePoint& at(std::size_t i) const;
  const SamplePoint& newest() const;
  void run_loop();

  const MetricsRegistry* registry_;
  Options options_;

  mutable std::mutex mu_;
  std::vector<SamplePoint> ring_;  ///< size() < capacity until full
  std::size_t head_ = 0;           ///< next overwrite position once full
  std::uint64_t ticks_ = 0;
  std::function<void()> pre_tick_;
  std::function<void(double)> on_tick_;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> running_{false};
};

}  // namespace auric::obs
