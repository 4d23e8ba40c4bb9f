#include "obs/rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/sampler.h"

namespace auric::obs {
namespace {

MetricSample counter_sample(const std::string& name, double value, Labels labels = {}) {
  MetricSample s;
  s.kind = MetricSample::Kind::kCounter;
  s.name = name;
  s.labels = std::move(labels);
  s.value = value;
  return s;
}

MetricSample gauge_sample(const std::string& name, double value) {
  MetricSample s;
  s.kind = MetricSample::Kind::kGauge;
  s.name = name;
  s.value = value;
  return s;
}

MetricSample histogram_sample(const std::string& name, std::vector<double> bounds,
                              std::vector<std::uint64_t> buckets, Labels labels = {}) {
  MetricSample s;
  s.kind = MetricSample::Kind::kHistogram;
  s.name = name;
  s.labels = std::move(labels);
  s.bounds = std::move(bounds);
  s.buckets = std::move(buckets);
  for (std::uint64_t b : s.buckets) s.count += b;
  return s;
}

AlertRule threshold_rule(const std::string& name, const std::string& metric, double value,
                         int fire_for = 1, int resolve_for = 1) {
  AlertRule rule;
  rule.name = name;
  rule.kind = AlertRule::Kind::kThreshold;
  rule.metric = SeriesSelector::parse(metric);
  rule.op = AlertRule::Op::kGt;
  rule.value = value;
  rule.fire_for = fire_for;
  rule.resolve_for = resolve_for;
  return rule;
}

TEST(RuleEngine, AddRuleValidatesAndPreRegistersTheFiringGauge) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  engine.add_rule(threshold_rule("depth_high", "g", 5.0));
  EXPECT_EQ(engine.size(), 1u);
  // The gauge exists (at 0) before the rule ever fires, so a healthy run
  // still exports the series.
  EXPECT_EQ(reg.label_sets("obs_alerts_firing"), 1u);

  EXPECT_THROW(engine.add_rule(threshold_rule("depth_high", "g", 1.0)),
               std::invalid_argument);  // duplicate name
  EXPECT_THROW(engine.add_rule(threshold_rule("", "g", 1.0)), std::invalid_argument);
  AlertRule bad = threshold_rule("bad_streaks", "g", 1.0);
  bad.fire_for = 0;
  EXPECT_THROW(engine.add_rule(bad), std::invalid_argument);
  AlertRule no_metric;
  no_metric.name = "no_metric";
  EXPECT_THROW(engine.add_rule(no_metric), std::invalid_argument);

  AlertRule burn;
  burn.name = "burn";
  burn.kind = AlertRule::Kind::kBurnRate;
  burn.numerator = SeriesSelector::parse("num");
  burn.denominator = SeriesSelector::parse("den");
  burn.window_s = 10.0;
  burn.long_window_s = 5.0;  // long must exceed short
  EXPECT_THROW(engine.add_rule(burn), std::invalid_argument);
  burn.long_window_s = 60.0;
  EXPECT_NO_THROW(engine.add_rule(burn));
}

TEST(RuleEngine, ThresholdFiresAndResolvesWithHysteresis) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  engine.add_rule(threshold_rule("depth_high", "g", 5.0, /*fire_for=*/2, /*resolve_for=*/2));
  std::vector<std::string> log;
  engine.set_log([&](const std::string& line) { log.push_back(line); });

  Sampler sampler(reg);
  Gauge& firing_gauge = reg.gauge("obs_alerts_firing", "", {{"rule", "depth_high"}});
  const auto step = [&](double t, double v) {
    sampler.tick_with(t, {gauge_sample("g", v)});
    engine.evaluate(sampler, t);
  };

  step(1.0, 10.0);  // breach 1 of 2: not firing yet
  EXPECT_TRUE(engine.healthy());
  EXPECT_DOUBLE_EQ(firing_gauge.value(), 0.0);
  step(2.0, 10.0);  // breach 2 of 2: fires
  EXPECT_FALSE(engine.healthy());
  EXPECT_EQ(engine.firing(), std::vector<std::string>{"depth_high"});
  EXPECT_DOUBLE_EQ(firing_gauge.value(), 1.0);
  step(3.0, 1.0);  // clean 1 of 2: still firing
  EXPECT_FALSE(engine.healthy());
  step(4.0, 10.0);  // breach again: the clean streak resets
  step(5.0, 1.0);
  step(6.0, 1.0);  // clean 2 of 2: resolves
  EXPECT_TRUE(engine.healthy());
  EXPECT_DOUBLE_EQ(firing_gauge.value(), 0.0);

  const std::vector<RuleState> states = engine.states();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_EQ(states[0].times_fired, 1u);
  EXPECT_DOUBLE_EQ(states[0].firing_since, 2.0);
  ASSERT_TRUE(states[0].last_value.has_value());
  EXPECT_DOUBLE_EQ(*states[0].last_value, 1.0);
  EXPECT_EQ(engine.evaluations(), 6u);

  ASSERT_EQ(log.size(), 2u);
  EXPECT_NE(log[0].find("ALERT firing: depth_high"), std::string::npos);
  EXPECT_NE(log[1].find("ALERT resolved: depth_high"), std::string::npos);
  // Transitions are also counted in the registry.
  EXPECT_EQ(reg.counter("obs_alert_transitions_total", "",
                        {{"rule", "depth_high"}, {"to", "firing"}})
                .value(),
            1u);
  EXPECT_EQ(reg.counter("obs_alert_transitions_total", "",
                        {{"rule", "depth_high"}, {"to", "resolved"}})
                .value(),
            1u);
}

TEST(RuleEngine, RateOverWindowComparesThePerSecondIncrease) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  AlertRule rule;
  rule.name = "err_rate";
  rule.kind = AlertRule::Kind::kRateOverWindow;
  rule.metric = SeriesSelector::parse("errors_total");
  rule.op = AlertRule::Op::kGt;
  rule.value = 5.0;
  rule.window_s = 10.0;
  engine.add_rule(rule);

  Sampler sampler(reg);
  sampler.tick_with(0.0, {counter_sample("errors_total", 0)});
  engine.evaluate(sampler, 0.0);
  EXPECT_TRUE(engine.healthy());  // a single point has no rate: no breach

  sampler.tick_with(1.0, {counter_sample("errors_total", 2)});
  engine.evaluate(sampler, 1.0);
  EXPECT_TRUE(engine.healthy());  // 2/s <= 5/s

  sampler.tick_with(2.0, {counter_sample("errors_total", 100)});
  engine.evaluate(sampler, 2.0);
  EXPECT_FALSE(engine.healthy());  // (100 - 0) / 2 = 50/s
  const std::vector<RuleState> states = engine.states();
  ASSERT_TRUE(states[0].last_value.has_value());
  EXPECT_DOUBLE_EQ(*states[0].last_value, 50.0);
}

TEST(RuleEngine, RateRuleAggregatesAcrossShardLabels) {
  // Pins the fleet-wide semantics the default breaker_open_rate and
  // rollback_rate rules rely on under --shards N: every per-shard series
  // carries a `shard` label, the rule's selector does not name it, and a
  // subset match sums the matching series — so two shards each under the
  // threshold still breach it together.
  MetricsRegistry reg;
  RuleEngine engine(reg);
  AlertRule rule;
  rule.name = "breaker_open_rate";
  rule.kind = AlertRule::Kind::kRateOverWindow;
  rule.metric = SeriesSelector::parse("auric_breaker_transitions_total{to=\"open\"}");
  rule.op = AlertRule::Op::kGt;
  rule.value = 1.0;
  rule.window_s = 10.0;
  engine.add_rule(rule);

  const auto open_sample = [](const std::string& shard, double value) {
    return counter_sample("auric_breaker_transitions_total", value,
                          {{"to", "open"}, {"shard", shard}});
  };
  Sampler sampler(reg);
  sampler.tick_with(0.0, {open_sample("0", 0), open_sample("1", 0),
                          counter_sample("auric_breaker_transitions_total", 0,
                                         {{"to", "closed"}, {"shard", "0"}})});
  engine.evaluate(sampler, 0.0);
  EXPECT_TRUE(engine.healthy());

  // 0.8 opens/s per shard: below the 1/s threshold shard-by-shard, 1.6/s
  // fleet-wide. The rule must see the sum. The closed-transition series
  // races ahead but never matches the selector.
  sampler.tick_with(10.0, {open_sample("0", 8), open_sample("1", 8),
                           counter_sample("auric_breaker_transitions_total", 500,
                                          {{"to", "closed"}, {"shard", "0"}})});
  engine.evaluate(sampler, 10.0);
  EXPECT_FALSE(engine.healthy());
  const std::vector<RuleState> states = engine.states();
  ASSERT_TRUE(states[0].last_value.has_value());
  EXPECT_DOUBLE_EQ(*states[0].last_value, 1.6);
}

TEST(RuleEngine, AbsenceFiresWhileTheMetricIsMissing) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  AlertRule rule;
  rule.name = "heartbeat";
  rule.kind = AlertRule::Kind::kAbsence;
  rule.metric = SeriesSelector::parse("heartbeat_total");
  engine.add_rule(rule);

  Sampler sampler(reg);
  sampler.tick_with(0.0, {});
  engine.evaluate(sampler, 0.0);
  EXPECT_FALSE(engine.healthy());
  sampler.tick_with(1.0, {counter_sample("heartbeat_total", 1)});
  engine.evaluate(sampler, 1.0);
  EXPECT_TRUE(engine.healthy());
}

TEST(RuleEngine, BurnRateNeedsBothWindowsToBreach) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  AlertRule rule;
  rule.name = "fallout_burn";
  rule.kind = AlertRule::Kind::kBurnRate;
  rule.numerator = SeriesSelector::parse("bad_total");
  rule.denominator = SeriesSelector::parse("all_total");
  rule.op = AlertRule::Op::kGt;
  rule.value = 0.5;
  rule.window_s = 2.0;
  rule.long_window_s = 6.0;
  engine.add_rule(rule);

  // The denominator grows 10/s throughout; the numerator is silent until
  // t=9, then grows 10/s too (ratio 1 inside the short window).
  Sampler sampler(reg);
  const auto step = [&](double t) {
    const double bad = t <= 8.0 ? 0.0 : 10.0 * (t - 8.0);
    sampler.tick_with(t, {counter_sample("bad_total", bad),
                          counter_sample("all_total", 10.0 * t)});
    engine.evaluate(sampler, t);
  };
  for (double t = 0.0; t <= 9.0; t += 1.0) {
    step(t);
    EXPECT_TRUE(engine.healthy()) << "t=" << t;
  }
  // t=10: short window burns (ratio 1) but the long window is still diluted
  // by the quiet period -> the blip does NOT fire.
  step(10.0);
  EXPECT_TRUE(engine.healthy());
  // t=12: the long window has burned too ((40-0)/6)/10 = 0.67 -> fires.
  step(11.0);
  step(12.0);
  EXPECT_FALSE(engine.healthy());
}

TEST(RuleEngine, LoadTextParsesTheCsvDialect) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  const char* text =
      "# comment\n"
      "name,kind,metric,op,value,window_s,long_window_s,fire_for,resolve_for\n"
      "\n"
      "fallout,burn_rate,push_total{outcome=\"bad\",vendor=\"v1\"}/push_total,>,0.5,5,30,2,3\n"
      "breaker,rate_over_window,breaker_total{to=\"open\"},>=,1,10,,2,\n"
      "heartbeat,absence,ticks_total,>,0\n";
  EXPECT_EQ(engine.load_text(text), 3u);
  EXPECT_EQ(engine.size(), 3u);

  const std::vector<RuleState> states = engine.states();
  EXPECT_EQ(states[0].rule.kind, AlertRule::Kind::kBurnRate);
  // Commas inside {...} did not split the cell; '/' split num from den.
  EXPECT_EQ(states[0].rule.numerator.name, "push_total");
  ASSERT_EQ(states[0].rule.numerator.labels.size(), 2u);
  EXPECT_EQ(states[0].rule.denominator.name, "push_total");
  EXPECT_DOUBLE_EQ(states[0].rule.window_s, 5.0);
  EXPECT_DOUBLE_EQ(states[0].rule.long_window_s, 30.0);
  EXPECT_EQ(states[0].rule.fire_for, 2);
  EXPECT_EQ(states[0].rule.resolve_for, 3);
  EXPECT_EQ(states[1].rule.op, AlertRule::Op::kGe);
  EXPECT_EQ(states[1].rule.resolve_for, 1);  // trailing empty cell -> default
  EXPECT_EQ(states[2].rule.kind, AlertRule::Kind::kAbsence);
  EXPECT_DOUBLE_EQ(states[2].rule.window_s, 60.0);  // default
}

TEST(RuleEngine, LoadTextReportsOriginAndLineOnErrors) {
  MetricsRegistry reg;
  const auto expect_error = [&](const char* text, const char* fragment) {
    RuleEngine engine(reg);
    try {
      engine.load_text(text, "rules.csv");
      FAIL() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("rules.csv:"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  expect_error("r,threshold,m,>\n", "name,kind,metric,op,value");
  expect_error("r,woops,m,>,1\n", "unknown rule kind");
  expect_error("r,threshold,m,~,1\n", "unknown rule op");
  // Ops are symbols only; the word spellings are not accepted.
  expect_error("ok,threshold,m,>=,1\nr,threshold,m,ge,1\n", "rules.csv:2: unknown rule op 'ge'");
  expect_error("r,threshold,m,>,abc\n", "bad value");
  expect_error("r,burn_rate,no_slash,>,1,5,30\n", "num/den");
  expect_error("r,threshold,m,>,1\nr,threshold,m,>,2\n", "duplicate");
}

TEST(RuleEngine, ThresholdQuantileSuffixEvaluatesHistogramQuantiles) {
  // A `:p99` suffix on a threshold selector (series_csv column naming)
  // gates on Sampler::quantile() instead of the last plain value — the
  // serve plane's p99 latency rule depends on exactly this.
  MetricsRegistry reg;
  RuleEngine engine(reg);
  EXPECT_EQ(engine.load_text("lat_p99,threshold,lat_ms{endpoint=\"recommend\"}:p99,>,90\n"), 1u);
  const std::vector<RuleState> states = engine.states();
  ASSERT_EQ(states.size(), 1u);
  EXPECT_DOUBLE_EQ(states[0].rule.quantile, 0.99);
  EXPECT_EQ(states[0].rule.metric.name, "lat_ms");  // the suffix was stripped
  ASSERT_EQ(states[0].rule.metric.labels.size(), 1u);

  Sampler sampler(reg);
  const Labels labels{{"endpoint", "recommend"}};
  // Missing-safe: no histogram in the snapshot -> no scalar -> no breach.
  sampler.tick_with(1.0, {});
  engine.evaluate(sampler, 1.0);
  EXPECT_TRUE(engine.healthy());
  // 90 of 100 observations <= 10 ms, 10 in (10, 100] -> p99 sits 90% into
  // the second bucket: 10 + 0.9 * 90 = 91 > 90 -> fires.
  sampler.tick_with(2.0, {histogram_sample("lat_ms", {10.0, 100.0}, {90, 10, 0}, labels)});
  engine.evaluate(sampler, 2.0);
  EXPECT_FALSE(engine.healthy());
  ASSERT_TRUE(engine.states()[0].last_value.has_value());
  EXPECT_DOUBLE_EQ(*engine.states()[0].last_value, 91.0);
  // Everything under 10 ms -> p99 = 9.9 -> resolves.
  sampler.tick_with(3.0, {histogram_sample("lat_ms", {10.0, 100.0}, {100, 0, 0}, labels)});
  engine.evaluate(sampler, 3.0);
  EXPECT_TRUE(engine.healthy());
}

TEST(RuleEngine, QuantileSuffixValidationAndLabelColonsDoNotCollide) {
  MetricsRegistry reg;
  const auto expect_error = [&](const char* text, const char* fragment) {
    RuleEngine engine(reg);
    try {
      engine.load_text(text, "rules.csv");
      FAIL() << "expected std::invalid_argument for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
  };
  expect_error("r,threshold,m:pxx,>,1\n", "quantile suffix");
  expect_error("r,threshold,m:p0,>,1\n", "quantile");
  expect_error("r,threshold,m:p100,>,1\n", "quantile");
  expect_error("r,rate_over_window,m:p99,>,1,10\n", "only valid on threshold");

  // A ':' inside a label value is data, not a quantile suffix.
  RuleEngine engine(reg);
  EXPECT_EQ(engine.load_text("r,threshold,m{path=\"a:p99\"},>,1\n"), 1u);
  EXPECT_LT(engine.states()[0].rule.quantile, 0.0);
  EXPECT_EQ(engine.states()[0].rule.metric.name, "m");
}

#ifdef AURIC_EXAMPLES_DIR
TEST(RuleEngine, ShippedDefaultRulesStayQuietWithoutServeTraffic) {
  // Pins the shipped examples/default.rules file: it must load, carry the
  // three serve-plane rules and the two model-drift rules, and fire NOTHING
  // when the serve series are absent — replay and bench runs load this
  // exact file.
  MetricsRegistry reg;
  RuleEngine engine(reg);
  EXPECT_EQ(engine.load_file(std::string(AURIC_EXAMPLES_DIR) + "/default.rules"), 9u);

  bool saw_shed_burn = false, saw_p99 = false, saw_degraded = false;
  bool saw_psi = false, saw_drifted = false;
  for (const RuleState& state : engine.states()) {
    if (state.rule.name == "serve_shed_burn") {
      saw_shed_burn = true;
      EXPECT_EQ(state.rule.kind, AlertRule::Kind::kBurnRate);
      EXPECT_EQ(state.rule.numerator.name, "auric_serve_shed_total");
      EXPECT_EQ(state.rule.denominator.name, "auric_serve_requests_total");
    } else if (state.rule.name == "serve_latency_p99") {
      saw_p99 = true;
      EXPECT_DOUBLE_EQ(state.rule.quantile, 0.99);
      EXPECT_EQ(state.rule.metric.name, "auric_serve_latency_ms");
    } else if (state.rule.name == "serve_degraded") {
      saw_degraded = true;
      EXPECT_EQ(state.rule.kind, AlertRule::Kind::kThreshold);
    } else if (state.rule.name == "model_support_psi") {
      saw_psi = true;
      EXPECT_EQ(state.rule.kind, AlertRule::Kind::kThreshold);
      EXPECT_EQ(state.rule.metric.name, "auric_model_drift_psi");
    } else if (state.rule.name == "model_params_drifted") {
      saw_drifted = true;
      EXPECT_EQ(state.rule.metric.name, "auric_model_drift_params_flagged");
    }
  }
  EXPECT_TRUE(saw_shed_burn && saw_p99 && saw_degraded);
  EXPECT_TRUE(saw_psi && saw_drifted);

  // A replay-shaped run: push/breaker series exist, serve series do not,
  // and the model-drift gauges sit at their healthy resting values (PSI 0,
  // nothing flagged) the way a freshly constructed ModelWatch exports them.
  Sampler sampler(reg);
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    sampler.tick_with(t, {counter_sample("auric_push_outcomes_total", 10.0 * t,
                                         {{"outcome", "implemented"}}),
                          gauge_sample("auric_model_drift_psi", 0.0),
                          gauge_sample("auric_model_drift_params_flagged", 0.0)});
    engine.evaluate(sampler, t);
    EXPECT_TRUE(engine.healthy()) << "t=" << t;
  }
}

TEST(RuleEngine, ShippedServeRulesPageOnAMissingDaemon) {
  // Pins examples/serve.rules: the absence rule pages when auric_serve_up
  // vanishes, and resolves once the daemon exports again.
  MetricsRegistry reg;
  RuleEngine engine(reg);
  EXPECT_EQ(engine.load_file(std::string(AURIC_EXAMPLES_DIR) + "/serve.rules"), 5u);

  Sampler sampler(reg);
  double t = 0.0;
  for (int i = 0; i < 3; ++i) {  // fire_for=3 empty snapshots
    sampler.tick_with(t += 1.0, {});
    engine.evaluate(sampler, t);
  }
  EXPECT_FALSE(engine.healthy());
  const std::vector<std::string> firing = engine.firing();
  EXPECT_NE(std::find(firing.begin(), firing.end(), "serve_up_absent"), firing.end());

  for (int i = 0; i < 3; ++i) {  // resolve_for=2 healthy snapshots
    sampler.tick_with(t += 1.0, {gauge_sample("auric_serve_up", 1.0)});
    engine.evaluate(sampler, t);
  }
  EXPECT_TRUE(engine.healthy());
}
#endif  // AURIC_EXAMPLES_DIR

TEST(RuleEngine, HealthzJsonReflectsTheVerdict) {
  MetricsRegistry reg;
  RuleEngine engine(reg);
  engine.add_rule(threshold_rule("depth_high", "g", 5.0));

  Sampler sampler(reg);
  sampler.tick_with(1.0, {gauge_sample("g", 1.0)});
  engine.evaluate(sampler, 1.0);
  std::string json = engine.healthz_json();
  EXPECT_NE(json.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(json.find("\"rules\":1"), std::string::npos);
  EXPECT_NE(json.find("\"firing\":[]"), std::string::npos);

  sampler.tick_with(2.0, {gauge_sample("g", 9.0)});
  engine.evaluate(sampler, 2.0);
  json = engine.healthz_json();
  EXPECT_NE(json.find("\"status\":\"alerting\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"depth_high\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"threshold\""), std::string::npos);
  EXPECT_NE(json.find("\"since\":2"), std::string::npos);
  EXPECT_NE(json.find("\"value\":9"), std::string::npos);
}

TEST(RuleEngine, WiresAsAnOnTickHook) {
  MetricsRegistry reg;
  reg.gauge("g").set(10.0);
  RuleEngine engine(reg);
  engine.add_rule(threshold_rule("depth_high", "g", 5.0));
  Sampler sampler(reg);
  sampler.set_on_tick([&](double t) { engine.evaluate(sampler, t); });
  sampler.tick(1.0);  // the hook runs outside the ring lock: no deadlock
  EXPECT_EQ(engine.evaluations(), 1u);
  EXPECT_FALSE(engine.healthy());
}

}  // namespace
}  // namespace auric::obs
