// ModelWatch: per-parameter telemetry and drift detection for the Fig. 5
// recommender (DESIGN.md §17).
//
// The system plane (metrics, traces, profiles) says nothing about *model*
// quality: which parameters vote vs. fall back to the rule book, how decisive
// those votes are, and whether the distribution the engine recommends from is
// shifting under it. ModelWatch closes that gap. Attach one to an engine
// (AuricEngine::set_watch) and every recommendation is mirrored into labeled
// instruments keyed by parameter name:
//
//   auric_model_recommendations_total{param,source}   decision provenance
//   auric_model_support / auric_model_margin{param}   vote-quality histograms
//   auric_model_coverage{param}                       voted / total, per day
//   auric_model_gate_outcomes_total{param,outcome}    KPI-gate verdict joined
//                                                     back to the parameter
//
// The 65-parameter catalog lands every name comfortably under the registry's
// 256-label-set cardinality cap (worst case: 195 sets for the 3-source
// counter). Against a capped registry the instruments degrade to the shared
// sink, so record() stays safe either way.
//
// Drift: roll_day() closes a day of counts and compares it against the
// previous day — a 2xK chi-square (ml/chi_square, the same machinery that
// learned the dependencies) on each parameter's recommended-value counts,
// and a PSI score on the pooled vote-support distribution — exported as the
// auric_model_drift_* gauges the incremental-relearn roadmap item consumes.
//
// Threading: record()/record_gate_outcome() are lock-free (pre-resolved
// instruments + relaxed atomics), safe from sharded replay workers and serve
// request threads. roll_day()/modelz_json() serialize on an internal mutex.
// Recording never touches replay output, so watched runs stay byte-identical.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "config/catalog.h"
#include "core/engine.h"
#include "obs/metrics.h"

namespace auric::core {

struct ModelWatchOptions {
  /// Significance level for flagging a parameter as drifted (the
  /// auric_model_drift_params_flagged gauge); matches the engine's
  /// dependency-learning alpha by default.
  double drift_alpha = 0.01;
  /// PSI resolution over the [0, 1] support range; clamped to [2, 64].
  int support_buckets = 10;
};

class ModelWatch {
 public:
  using Options = ModelWatchOptions;

  /// Registers every instrument eagerly (one registry pass at construction,
  /// zero registry traffic afterwards). The catalog must outlive the watch.
  explicit ModelWatch(const config::ParamCatalog& catalog,
                      obs::MetricsRegistry& registry = obs::MetricsRegistry::global(),
                      Options options = {});

  ModelWatch(const ModelWatch&) = delete;
  ModelWatch& operator=(const ModelWatch&) = delete;

  /// Mirrors one recommendation into the per-parameter instruments and the
  /// current day's drift counts. Lock-free; called from the engine hot path.
  void record(const Recommendation& rec) const;

  /// Mirrors a batch of recommendations (one engine call's decisions) and
  /// ends in the same state as record() on each element. Per-parameter
  /// instruments take one update per decision; the pooled support buckets
  /// fold locally and publish one add per bucket, and the day's total and
  /// voted counts are derived at roll_day() rather than counted. Lock-free.
  void record(std::span<const Recommendation> recs) const;

  /// Joins a KPI-gate verdict back to the parameter that recommended the
  /// change: `accepted` covers implemented/recovered launches, rolled-back
  /// ones land in the rolled_back series. Lock-free.
  void record_gate_outcome(config::ParamId param, bool accepted) const;

  /// Closes the current day: per-parameter day-over-day chi-square on the
  /// recommended-value counts, PSI on the pooled support distribution,
  /// coverage gauges. Call at day granularity (replay day roll, serve
  /// relearn). Thread-safe, but intended for one driver thread.
  void roll_day();

  int days_rolled() const;
  /// Day-over-day PSI of the pooled vote-support distribution (0 until two
  /// days have rolled).
  double psi() const;
  /// Latest day-over-day chi-square p-value for `param` (1.0 until two days
  /// of counts exist; low = the recommended-value distribution moved).
  double drift_p(config::ParamId param) const;
  /// Parameters whose latest p-value falls below drift_alpha.
  std::size_t drifted_params() const;

  /// The /modelz document: per-parameter cumulative counters, coverage and
  /// drift state plus the global drift summary, as a JSON object.
  std::string modelz_json() const;

  const config::ParamCatalog& catalog() const { return *catalog_; }

 private:
  struct ParamState {
    obs::Counter* sources[3] = {nullptr, nullptr, nullptr};  // by RecommendationSource
    obs::Counter* gate_accepted = nullptr;
    obs::Counter* gate_rolled_back = nullptr;
    obs::Histogram* support = nullptr;
    obs::Histogram* margin = nullptr;
    obs::Gauge* coverage = nullptr;
    obs::Gauge* drift_p = nullptr;
    std::size_t domain = 0;
    /// Today's recommended-value counts, one slot per domain index; mutable
    /// because record() is const on the watch (relaxed atomics only). With
    /// the two rarer counts below they also give today's total (binned plus
    /// unbinned) and voted (total minus fallbacks) for the coverage gauge.
    std::unique_ptr<std::atomic<std::uint32_t>[]> day_counts;
    mutable std::atomic<std::uint32_t> day_unbinned{0};  ///< value unset or off-domain
    mutable std::atomic<std::uint32_t> day_fallback{0};  ///< rule-book defaults
    // Previous closed day + latest test result; guarded by mu_.
    std::vector<std::int64_t> prev_counts;
    double last_p = 1.0;
    double last_coverage = 0.0;
  };

  const config::ParamCatalog* catalog_;
  Options options_;
  // Fixed array (ParamState holds atomics, so it is neither copyable nor
  // movable); indexed by ParamId.
  std::unique_ptr<ParamState[]> params_;
  std::size_t param_count_ = 0;

  /// Today's pooled support-bucket counts (PSI input).
  std::unique_ptr<std::atomic<std::uint64_t>[]> support_day_;

  obs::Gauge* psi_gauge_ = nullptr;
  obs::Gauge* drifted_gauge_ = nullptr;
  obs::Counter* days_counter_ = nullptr;

  mutable std::mutex mu_;
  std::vector<double> prev_support_;  // previous day's bucket counts
  double last_psi_ = 0.0;
  int days_ = 0;
};

}  // namespace auric::core
