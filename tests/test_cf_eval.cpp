#include "eval/cf_eval.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::eval {
namespace {

struct Fixture {
  netsim::Topology topo = test::chain_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);

  /// The global learner (no proximity), optionally scoped to one market.
  core::AuricEngine engine(std::optional<netsim::MarketId> market = std::nullopt,
                           bool local = false) const {
    core::AuricOptions options;
    options.use_proximity = local;
    options.market = market;
    return core::AuricEngine(topo, schema, catalog, assignment, options);
  }
};

TEST(CfEvaluation, PerfectAssignmentScoresPerfectly) {
  Fixture f;
  const CfParamResult result = evaluate_param(f.engine(), 0);
  EXPECT_EQ(result.rows, 16u);
  EXPECT_EQ(result.correct, 16u);
  EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
  EXPECT_EQ(result.fallback_default, 0u);
  EXPECT_EQ(result.local_decided, 0u);
}

TEST(CfEvaluation, MismatchSinkCapturesDeviations) {
  Fixture f;
  test::set_value(f.assignment.singular[0], 2, 9);  // one deviating carrier
  std::vector<CfPrediction> mismatches;
  const CfParamResult result = evaluate_param(f.engine(), 0, &mismatches);
  EXPECT_EQ(result.correct + mismatches.size(), result.rows);
  ASSERT_EQ(mismatches.size(), 1u);
  EXPECT_EQ(mismatches[0].carrier, 2);
  EXPECT_EQ(mismatches[0].entity, 2u);
  EXPECT_EQ(mismatches[0].actual, 9);
  EXPECT_EQ(mismatches[0].predicted, 3);  // the band majority
  EXPECT_EQ(mismatches[0].param, 0);
}

TEST(CfEvaluation, MarketScopingEvaluatesSubsets) {
  Fixture f;
  for (const netsim::MarketId market : {netsim::MarketId{0}, netsim::MarketId{1}}) {
    const core::AuricEngine engine = f.engine(market);
    const core::LabelColumn labels = engine.label_column(0);
    for (const netsim::Carrier& carrier : f.topo.carriers) {
      if (labels.label(static_cast<std::size_t>(carrier.id)) >= 0) {
        EXPECT_EQ(carrier.market, market);
      }
    }
    EXPECT_EQ(evaluate_param(engine, 0).rows, market == 0 ? 10u : 6u);
  }
}

TEST(CfEvaluation, EvaluateAllCoversCatalog) {
  Fixture f;
  const auto results = evaluate_all(f.engine());
  ASSERT_EQ(results.size(), f.catalog.size());
  for (std::size_t p = 0; p < results.size(); ++p) EXPECT_EQ(results[p].param, p);
  // The pair-wise parameter scores one row per configured edge.
  EXPECT_EQ(results[1].rows, f.assignment.pairwise[0].configured_count());
  EXPECT_DOUBLE_EQ(overall_accuracy(results), 1.0);
}

TEST(CfEvaluation, LocalModeUsesProximity) {
  Fixture f;
  const CfParamResult result = evaluate_param(f.engine(std::nullopt, /*local=*/true), 0);
  EXPECT_DOUBLE_EQ(result.accuracy(), 1.0);
}

TEST(CfEvaluation, TalliesFollowTheEngineDecisionSource) {
  // Every row is scored by the engine's own leave-one-out decision, so the
  // per-source tallies are the engine's recommendation sources.
  Fixture f;
  test::set_value(f.assignment.singular[0], 2, 9);
  const core::AuricEngine engine = f.engine(std::nullopt, /*local=*/true);
  const core::LabelColumn labels = engine.label_column(0);
  std::size_t configured = 0;
  std::size_t local = 0;
  std::size_t fallback = 0;
  for (const netsim::Carrier& carrier : f.topo.carriers) {
    if (labels.label(static_cast<std::size_t>(carrier.id)) < 0) continue;
    ++configured;
    const core::Recommendation rec = engine.recommend(0, carrier.id);
    local += rec.source == core::RecommendationSource::kLocalVote;
    fallback += rec.source == core::RecommendationSource::kRulebookDefault;
  }
  const CfParamResult result = evaluate_param(engine, 0);
  EXPECT_EQ(result.local_decided, local);
  EXPECT_EQ(result.fallback_default, fallback);
  EXPECT_EQ(result.rows, configured);
}

TEST(OverallAccuracy, RowWeighted) {
  std::vector<CfParamResult> results(2);
  results[0].rows = 10;
  results[0].correct = 10;
  results[1].rows = 90;
  results[1].correct = 0;
  EXPECT_DOUBLE_EQ(overall_accuracy(results), 0.1);
  EXPECT_DOUBLE_EQ(overall_accuracy({}), 0.0);
}

}  // namespace
}  // namespace auric::eval
