// Declarative SLO alert rules evaluated against the Sampler ring.
//
// §6 of the paper gates launches on KPI degradation after the fact; the live
// plane needs the complementary signal — "is the pipeline healthy RIGHT NOW"
// — cheap enough to evaluate every sample tick. A RuleEngine holds a small
// set of declarative rules, each reducing one Sampler-derived scalar to a
// breach bit per tick, with firing/resolve hysteresis so a single noisy tick
// neither pages nor un-pages:
//
//   threshold         value(metric)  OP  bound          (gauges, counters)
//   rate_over_window  rate(metric, window_s)  OP  bound
//   absence           metric missing from the newest snapshot
//   burn_rate         rate(num)/rate(den) OP bound over BOTH a short and a
//                     long window (multi-window burn rate: fast to fire on
//                     real regressions, refuses to fire on blips)
//
// Rules load from a small CSV dialect (see load_text). Transitions are
// logged and mirrored into the registry (obs_alerts_firing{rule=...}), and
// the aggregate verdict backs GET /healthz: 200 iff nothing is firing.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/sampler.h"

namespace auric::obs {

struct AlertRule {
  enum class Kind { kThreshold, kRateOverWindow, kAbsence, kBurnRate };
  enum class Op { kGt, kGe, kLt, kLe };

  std::string name;
  Kind kind = Kind::kThreshold;
  /// threshold / rate_over_window / absence operand.
  SeriesSelector metric;
  /// burn_rate operands (the rule CSV writes them as "num/den").
  SeriesSelector numerator;
  SeriesSelector denominator;
  Op op = Op::kGt;
  double value = 0.0;
  /// Threshold rules may target a histogram quantile instead of a plain
  /// value: a `:pNN` suffix on the metric selector (the sampler's
  /// series_csv column naming, e.g. `auric_serve_latency_ms{...}:p99`)
  /// sets this to NN/100 and the rule evaluates Sampler::quantile().
  /// < 0 (the default) keeps the plain Sampler::value() scalar. An empty
  /// histogram yields no scalar, so the rule cannot fire before traffic.
  double quantile = -1.0;
  /// Trailing window for rate_over_window and the burn-rate short window.
  double window_s = 60.0;
  /// Burn-rate long window; must exceed window_s.
  double long_window_s = 0.0;
  /// Consecutive breaching ticks before the alert fires (>= 1).
  int fire_for = 1;
  /// Consecutive clean ticks before a firing alert resolves (>= 1).
  int resolve_for = 1;
};

const char* alert_kind_name(AlertRule::Kind kind);
const char* alert_op_name(AlertRule::Op op);

/// Per-rule evaluation state, exported for /healthz and tests.
struct RuleState {
  AlertRule rule;
  bool firing = false;
  int breach_streak = 0;   ///< consecutive breaching ticks so far
  int ok_streak = 0;       ///< consecutive clean ticks so far
  std::optional<double> last_value;  ///< scalar from the latest evaluation
  double firing_since = 0.0;         ///< tick time of the current firing episode
  std::uint64_t times_fired = 0;     ///< resolved→firing transitions, ever
};

class RuleEngine {
 public:
  explicit RuleEngine(MetricsRegistry& registry = MetricsRegistry::global());
  RuleEngine(const RuleEngine&) = delete;
  RuleEngine& operator=(const RuleEngine&) = delete;

  void add_rule(const AlertRule& rule);

  /// Loads rules from the CSV dialect:
  ///
  ///   # comment lines and blank lines are skipped; an optional header row
  ///   # (first cell "name") is skipped too.
  ///   name,kind,metric,op,value,window_s,long_window_s,fire_for,resolve_for
  ///
  /// `kind` is threshold | rate_over_window | absence | burn_rate; `metric`
  /// is a series selector (burn_rate writes "num/den" — the '/' is split
  /// outside braces; threshold selectors accept a `:p50`/`:p90`/`:p99`
  /// histogram-quantile suffix); `op` is > >= < <=; trailing empty cells
  /// fall back to defaults (window 60 s, fire_for/resolve_for 1).
  /// Commas inside {...} or "..." do not split cells. Returns the number of
  /// rules added; throws std::invalid_argument with line context on a
  /// malformed row.
  std::size_t load_text(std::string_view text, std::string_view origin = "<inline>");

  /// load_text() over a file; throws std::runtime_error when unreadable.
  std::size_t load_file(const std::string& path);

  /// Sets the logger of `ALERT firing/resolved` transition lines (default:
  /// none; util::LivePlane routes them through util::log_warn).
  void set_log(std::function<void(const std::string&)> log);

  /// Evaluates every rule against the sampler at tick time `t` — wire as
  /// `sampler.set_on_tick([&](double t){ engine.evaluate(sampler, t); })`.
  void evaluate(const Sampler& sampler, double t);

  /// True when no rule is firing.
  bool healthy() const;
  /// Names of currently firing rules.
  std::vector<std::string> firing() const;
  std::vector<RuleState> states() const;
  std::size_t size() const;
  std::uint64_t evaluations() const;

  /// GET /healthz body: {"status":"ok"|"alerting","firing":[...],...}.
  std::string healthz_json() const;

 private:
  bool breached(const RuleState& state, const Sampler& sampler, std::optional<double>* out) const;

  MetricsRegistry* registry_;
  mutable std::mutex mu_;
  std::vector<RuleState> states_;
  std::uint64_t evaluations_ = 0;
  double last_t_ = 0.0;
  std::function<void(const std::string&)> log_;
};

}  // namespace auric::obs
