// ModelWatch + EngineDiff: the model-quality plane (DESIGN.md §17).
//
// Covers the per-parameter instrument registration (including the registry's
// 256-label-set cardinality cap and the over-cap degradation path), the
// day-over-day drift detectors (chi-square per parameter, PSI on the pooled
// support distribution), the KPI-gate outcome join, the /modelz document,
// and the relearn shadow-audit's engine diff.
#include "core/model_watch.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/engine.h"
#include "core/engine_diff.h"
#include "obs/metrics.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace auric::core {
namespace {

Recommendation rec_of(config::ParamId param, config::ValueIndex value,
                      RecommendationSource source, double support, double margin = 0.0) {
  Recommendation rec;
  rec.param = param;
  rec.value = value;
  rec.source = source;
  rec.support = support;
  rec.margin = margin;
  return rec;
}

TEST(ModelWatch, FullCatalogRegistersUnderTheLabelCap) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  ModelWatch watch(catalog, registry);

  // Every parameter gets its own label set on every family; the worst-case
  // family (3 sources x 65 params = 195 sets) stays under the 256 cap.
  EXPECT_EQ(registry.label_sets("auric_model_recommendations_total"), 3 * catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_gate_outcomes_total"), 2 * catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_support"), catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_margin"), catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_coverage"), catalog.size());
  EXPECT_EQ(registry.label_sets("auric_model_drift_chi2_p"), catalog.size());
  EXPECT_LE(registry.label_sets("auric_model_recommendations_total"), 256u);
  // Nothing was shunted to the shared unexported sink.
  EXPECT_EQ(registry.counter("obs_labels_dropped_total").value(), 0u);
}

TEST(ModelWatch, OverCapRegistryDegradesToTheSharedSinkSafely) {
  obs::MetricsRegistry registry;
  registry.set_label_limit(16);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  ModelWatch watch(catalog, registry);

  // Past the cap registrations land on the drop counter, not the exporter...
  EXPECT_LE(registry.label_sets("auric_model_recommendations_total"), 16u);
  EXPECT_GT(registry.counter("obs_labels_dropped_total").value(), 0u);

  // ...and recording through the degraded instruments is still safe.
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    watch.record(rec_of(static_cast<config::ParamId>(p), 0,
                        RecommendationSource::kLocalVote, 0.9, 0.5));
  }
  watch.roll_day();
  EXPECT_EQ(watch.days_rolled(), 1);
}

TEST(ModelWatch, RecordMirrorsSourcesSupportAndCoverage) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  watch.record(rec_of(0, 3, RecommendationSource::kLocalVote, 1.0, 0.8));
  watch.record(rec_of(0, 3, RecommendationSource::kGlobalVote, 0.8, 0.4));
  watch.record(rec_of(0, 5, RecommendationSource::kRulebookDefault, 0.0));

  const std::string& name = catalog.at(0).name;
  EXPECT_EQ(registry
                .counter("auric_model_recommendations_total", "",
                         {{"param", name}, {"source", "local-vote"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("auric_model_recommendations_total", "",
                         {{"param", name}, {"source", "global-vote"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("auric_model_recommendations_total", "",
                         {{"param", name}, {"source", "rulebook-default"}})
                .value(),
            1u);
  std::vector<double> unit_bounds;
  for (int i = 1; i <= 10; ++i) unit_bounds.push_back(0.1 * i);
  EXPECT_EQ(
      registry.histogram("auric_model_support", unit_bounds, "", {{"param", name}}).count(),
      3u);

  // Coverage = voted / total, published at the day roll.
  watch.roll_day();
  EXPECT_NEAR(registry.gauge("auric_model_coverage", "", {{"param", name}}).value(), 2.0 / 3.0,
              1e-9);
}

/// Every instrument of two registries agrees.
void expect_same_instruments(const obs::MetricsRegistry& a, const obs::MetricsRegistry& b) {
  const std::vector<obs::MetricSample> sa = a.snapshot();
  const std::vector<obs::MetricSample> sb = b.snapshot();
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    SCOPED_TRACE(sa[i].name);
    EXPECT_EQ(sa[i].name, sb[i].name);
    EXPECT_EQ(sa[i].labels, sb[i].labels);
    EXPECT_EQ(sa[i].value, sb[i].value);
    EXPECT_EQ(sa[i].buckets, sb[i].buckets);
    EXPECT_EQ(sa[i].count, sb[i].count);
    EXPECT_EQ(sa[i].sum, sb[i].sum);
  }
}

TEST(ModelWatch, BatchRecordEndsInTheSameStateAsPerDecisionRecords) {
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  obs::MetricsRegistry per_registry;
  obs::MetricsRegistry batch_registry;
  ModelWatch per(catalog, per_registry);
  ModelWatch batch(catalog, batch_registry);
  util::Rng rng(17);
  for (int day = 0; day < 3; ++day) {
    // Repeated parameters, all three sources, supports on bucket edges
    // (0, 0.5, 1) and unset values.
    std::vector<Recommendation> recs;
    for (int i = 0; i < 400; ++i) {
      const auto param = static_cast<config::ParamId>(rng.uniform_int(0, 9) * 6 % 65);
      const auto source = static_cast<RecommendationSource>(rng.uniform_int(0, 2));
      const double support = static_cast<double>(rng.uniform_int(0, 8 + day)) / (8 + day);
      const config::ValueIndex value =
          i % 37 == 0 ? config::kUnset
                      : static_cast<config::ValueIndex>(rng.uniform_int(0, 3 + day));
      recs.push_back(rec_of(param, value, source, support, support / 2));
    }
    for (const Recommendation& rec : recs) per.record(rec);
    // Uneven batches, including an empty one and a batch of one.
    std::size_t at = 0;
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{81}, std::size_t{318}}) {
      batch.record(std::span<const Recommendation>(recs).subspan(at, n));
      at += n;
    }
    ASSERT_EQ(at, recs.size());
    expect_same_instruments(per_registry, batch_registry);
    per.roll_day();
    batch.roll_day();
    expect_same_instruments(per_registry, batch_registry);
    EXPECT_EQ(per.psi(), batch.psi());
    EXPECT_EQ(per.modelz_json(), batch.modelz_json());
  }
  EXPECT_GT(per.psi(), 0.0);
}

TEST(ModelWatch, EngineBatchesMatchPerSlotRecommendations) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  AuricEngine engine(topo, schema, catalog, assignment);
  obs::MetricsRegistry per_registry;
  obs::MetricsRegistry batch_registry;
  ModelWatch per(catalog, per_registry);
  ModelWatch batch(catalog, batch_registry);

  for (netsim::CarrierId c = 0; c < 20; ++c) {
    std::vector<SlotQuery> slots;
    for (const config::ParamId p : catalog.singular_ids()) slots.push_back({p});
    for (const netsim::CarrierId n : topo.neighborhood(c)) {
      for (const config::ParamId p : catalog.pairwise_ids()) slots.push_back({p, n});
    }
    engine.set_watch(&per);
    std::vector<Recommendation> expected;
    for (const SlotQuery& slot : slots) expected.push_back(engine.recommend(slot.param, c, slot.neighbor));
    engine.set_watch(&batch);
    const std::vector<Recommendation> got = engine.recommend_slots(c, slots);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].param, expected[i].param);
      EXPECT_EQ(got[i].value, expected[i].value);
      EXPECT_EQ(got[i].source, expected[i].source);
      EXPECT_EQ(got[i].votes, expected[i].votes);
      EXPECT_EQ(got[i].group_size, expected[i].group_size);
      EXPECT_EQ(got[i].support, expected[i].support);
      EXPECT_EQ(got[i].margin, expected[i].margin);
    }
  }
  expect_same_instruments(per_registry, batch_registry);
}

TEST(ModelWatch, CoverageCountsDecisionsWithoutABinnedValue) {
  // Coverage is derived at the day roll from the value counts plus the
  // unset/off-domain and fallback counters; every decision still counts.
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);
  watch.record(rec_of(0, config::kUnset, RecommendationSource::kLocalVote, 1.0));
  watch.record(rec_of(0, 999, RecommendationSource::kGlobalVote, 0.9));
  watch.record(rec_of(0, config::kUnset, RecommendationSource::kRulebookDefault, 0.0));
  watch.record(rec_of(0, 2, RecommendationSource::kRulebookDefault, 0.0));
  watch.roll_day();
  const std::string& name = catalog.at(0).name;
  EXPECT_DOUBLE_EQ(registry.gauge("auric_model_coverage", "", {{"param", name}}).value(), 0.5);
}

TEST(ModelWatch, GateOutcomesJoinBackToTheParameter) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  watch.record_gate_outcome(0, true);
  watch.record_gate_outcome(0, true);
  watch.record_gate_outcome(0, false);
  watch.record_gate_outcome(1, false);

  const std::string& name = catalog.at(0).name;
  EXPECT_EQ(registry
                .counter("auric_model_gate_outcomes_total", "",
                         {{"param", name}, {"outcome", "accepted"}})
                .value(),
            2u);
  EXPECT_EQ(registry
                .counter("auric_model_gate_outcomes_total", "",
                         {{"param", name}, {"outcome", "rolled_back"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .counter("auric_model_gate_outcomes_total", "",
                         {{"param", catalog.at(1).name}, {"outcome", "rolled_back"}})
                .value(),
            1u);
}

TEST(ModelWatch, ChiSquareFlagsAShiftedValueDistribution) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  // No drift verdict until two days of counts exist.
  EXPECT_DOUBLE_EQ(watch.drift_p(0), 1.0);

  const auto day_of = [&](config::ValueIndex value, int n) {
    for (int i = 0; i < n; ++i) {
      watch.record(rec_of(0, value, RecommendationSource::kLocalVote, 0.9, 0.6));
    }
    watch.roll_day();
  };

  day_of(3, 200);  // day 1: baseline
  day_of(3, 200);  // day 2: identical distribution
  EXPECT_GT(watch.drift_p(0), 0.5);
  EXPECT_EQ(watch.drifted_params(), 0u);

  day_of(9, 200);  // day 3: the recommended value moved wholesale
  EXPECT_LT(watch.drift_p(0), 0.01);
  EXPECT_EQ(watch.drifted_params(), 1u);
  EXPECT_LT(registry.gauge("auric_model_drift_chi2_p", "", {{"param", catalog.at(0).name}})
                .value(),
            0.01);
  EXPECT_DOUBLE_EQ(registry.gauge("auric_model_drift_params_flagged").value(), 1.0);
  EXPECT_EQ(registry.counter("auric_model_days_total").value(), 3u);
}

TEST(ModelWatch, PsiTracksTheSupportDistribution) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);

  const auto day_of = [&](double support, int n) {
    for (int i = 0; i < n; ++i) {
      watch.record(rec_of(0, 3, RecommendationSource::kLocalVote, support, 0.5));
    }
    watch.roll_day();
  };

  day_of(0.95, 300);
  day_of(0.95, 300);  // identical support profile: PSI ~ 0
  const double stable_psi = watch.psi();
  EXPECT_LT(stable_psi, 0.05);

  day_of(0.15, 300);  // support collapsed: PSI jumps
  EXPECT_GT(watch.psi(), stable_psi + 0.5);
  EXPECT_GT(registry.gauge("auric_model_drift_psi").value(), 0.5);
}

TEST(ModelWatch, ModelzJsonCarriesTheModelDocument) {
  obs::MetricsRegistry registry;
  const config::ParamCatalog catalog = test::tiny_catalog();
  ModelWatch watch(catalog, registry);
  watch.record(rec_of(0, 3, RecommendationSource::kLocalVote, 1.0, 1.0));
  watch.record_gate_outcome(0, true);
  watch.roll_day();

  const std::string json = watch.modelz_json();
  EXPECT_NE(json.find("\"days\":1"), std::string::npos);
  EXPECT_NE(json.find("\"psi\":"), std::string::npos);
  EXPECT_NE(json.find("\"drift_alpha\":0.01"), std::string::npos);
  EXPECT_NE(json.find("\"params\":["), std::string::npos);
  EXPECT_NE(json.find("\"param\":\"toySingular\""), std::string::npos);
  EXPECT_NE(json.find("\"local\":1"), std::string::npos);
  EXPECT_NE(json.find("\"gate_accepted\":1"), std::string::npos);
  EXPECT_NE(json.find("\"drift_p\":"), std::string::npos);
}

TEST(ModelWatch, EngineRecordsEveryRecommendationThroughTheWatch) {
  obs::MetricsRegistry registry;
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();

  AuricEngine engine(topo, schema, catalog, assignment);
  ModelWatch watch(catalog, registry);
  engine.set_watch(&watch);

  const std::vector<Recommendation> recs = engine.recommend_singular(0);
  ASSERT_FALSE(recs.empty());

  // Every emitted recommendation landed in exactly one source series.
  std::uint64_t recorded = 0;
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const std::string& name = catalog.at(static_cast<config::ParamId>(p)).name;
    for (const char* source : {"local-vote", "global-vote", "rulebook-default"}) {
      recorded += registry
                      .counter("auric_model_recommendations_total", "",
                               {{"param", name}, {"source", source}})
                      .value();
    }
  }
  EXPECT_EQ(recorded, recs.size());
}

TEST(EngineDiff, SelfDiffReportsZeroFlips) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine engine(topo, schema, catalog, assignment);

  const EngineDiffReport report = diff_engines(engine, engine, 0, 1);
  EXPECT_EQ(report.carriers_sampled, topo.carrier_count());
  EXPECT_EQ(report.slots_compared, topo.carrier_count() * catalog.singular_ids().size());
  EXPECT_EQ(report.flips, 0u);
  EXPECT_EQ(report.source_changes, 0u);
  EXPECT_DOUBLE_EQ(report.flip_rate, 0.0);
  EXPECT_DOUBLE_EQ(report.mean_support_delta, 0.0);
  EXPECT_TRUE(report.churn.empty());
}

TEST(EngineDiff, DegradedCandidateSurfacesFlipsAndChurn) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine healthy(topo, schema, catalog, assignment);

  // A vote threshold above 1.0 can never be met: the candidate falls back to
  // the rule book everywhere — the degenerate model a shadow-audit exists to
  // catch before it serves.
  AuricOptions broken;
  broken.vote_threshold = 1.01;
  const AuricEngine fallback(topo, schema, catalog, assignment, broken);

  const EngineDiffReport report = diff_engines(healthy, fallback, 0, 1);
  EXPECT_GT(report.flips, 0u);
  EXPECT_GT(report.source_changes, 0u);
  EXPECT_GT(report.flip_rate, 0.0);
  EXPECT_LT(report.mean_support_delta, 0.0);  // defaults carry zero support
  ASSERT_FALSE(report.churn.empty());
  EXPECT_GE(report.churn.front().flips, report.churn.back().flips);

  const std::string json = report.json(3);
  EXPECT_NE(json.find("\"flip_rate\":"), std::string::npos);
  EXPECT_NE(json.find("\"top_churn\":["), std::string::npos);
  EXPECT_NE(report.text(3).find("value flips"), std::string::npos);
}

TEST(EngineDiff, SeededSampleIsDeterministic) {
  const netsim::Topology topo = test::small_generated_topology(5, 2, 10);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  const AuricEngine engine(topo, schema, catalog, assignment);
  AuricOptions global_only;
  global_only.use_proximity = false;
  const AuricEngine other(topo, schema, catalog, assignment, global_only);

  const EngineDiffReport a = diff_engines(engine, other, 10, 42);
  const EngineDiffReport b = diff_engines(engine, other, 10, 42);
  EXPECT_EQ(a.carriers_sampled, 10u);
  EXPECT_EQ(a.json(0), b.json(0));
}

TEST(EngineDiff, MismatchedEnginesThrow) {
  const netsim::Topology big = test::small_generated_topology(5, 2, 10);
  const netsim::Topology small = test::tiny_topology();
  const config::ParamCatalog catalog = config::ParamCatalog::standard();

  const netsim::AttributeSchema big_schema = netsim::AttributeSchema::standard(big);
  const config::ConfigAssignment big_assignment =
      config::GroundTruthModel(big, big_schema, catalog).assign();
  const AuricEngine big_engine(big, big_schema, catalog, big_assignment);

  const netsim::AttributeSchema small_schema = netsim::AttributeSchema::standard(small);
  const config::ConfigAssignment small_assignment =
      config::GroundTruthModel(small, small_schema, catalog).assign();
  const AuricEngine small_engine(small, small_schema, catalog, small_assignment);

  EXPECT_THROW(diff_engines(big_engine, small_engine, 0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace auric::core
