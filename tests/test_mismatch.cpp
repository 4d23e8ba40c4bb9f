#include "eval/mismatch.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::eval {
namespace {

TEST(LabelMismatch, TrialAndTerrainMeanUpdateLearner) {
  EXPECT_EQ(label_mismatch(config::Cause::kTrial, 5, 3), MismatchLabel::kUpdateLearner);
  EXPECT_EQ(label_mismatch(config::Cause::kHiddenTerrain, 5, 5),
            MismatchLabel::kUpdateLearner);
}

TEST(LabelMismatch, StaleLeftoverRecoveredIsGoodRecommendation) {
  EXPECT_EQ(label_mismatch(config::Cause::kStaleLeftover, /*intended=*/5, /*predicted=*/5),
            MismatchLabel::kGoodRecommendation);
  EXPECT_EQ(label_mismatch(config::Cause::kStaleLeftover, 5, 4), MismatchLabel::kInconclusive);
}

TEST(LabelMismatch, EverythingElseIsInconclusive) {
  for (config::Cause cause : {config::Cause::kDefault, config::Cause::kAttributeRule,
                              config::Cause::kMarketStyle, config::Cause::kLocalPocket,
                              config::Cause::kNoise}) {
    EXPECT_EQ(label_mismatch(cause, 5, 5), MismatchLabel::kInconclusive);
  }
}

TEST(MismatchBreakdown, FractionsSumToOne) {
  MismatchBreakdown b;
  b.total = 10;
  b.update_learner = 1;
  b.good_recommendation = 3;
  b.inconclusive = 6;
  EXPECT_DOUBLE_EQ(b.fraction(MismatchLabel::kUpdateLearner), 0.1);
  EXPECT_DOUBLE_EQ(b.fraction(MismatchLabel::kGoodRecommendation), 0.3);
  EXPECT_DOUBLE_EQ(b.fraction(MismatchLabel::kInconclusive), 0.6);
  EXPECT_DOUBLE_EQ(MismatchBreakdown{}.fraction(MismatchLabel::kInconclusive), 0.0);
}

/// Gives `entity` the value `value` for the reason `cause`, keeping its intent.
void plant(config::ParamColumn& col, std::size_t entity, config::ValueIndex value,
           config::Cause cause) {
  col.set(entity, value, col.intended_of(entity), cause);
}

TEST(LabelMismatches, AggregatesAgainstGroundTruth) {
  const netsim::Topology topo = test::chain_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  // Plant: carrier 0 is a stale leftover (value 9, intent 3); carrier 2 is
  // an ongoing trial; carrier 4 is noise.
  plant(assignment.singular[0], 0, 9, config::Cause::kStaleLeftover);
  plant(assignment.singular[0], 2, 8, config::Cause::kTrial);
  plant(assignment.singular[0], 4, 6, config::Cause::kNoise);

  std::vector<CfPrediction> mismatches{
      {0, 0, /*predicted=*/3, /*actual=*/9, 0},
      {0, 2, 3, 8, 2},
      {0, 4, 3, 6, 4},
  };
  const MismatchBreakdown breakdown = label_mismatches(mismatches, catalog, assignment);
  EXPECT_EQ(breakdown.total, 3u);
  EXPECT_EQ(breakdown.good_recommendation, 1u);
  EXPECT_EQ(breakdown.update_learner, 1u);
  EXPECT_EQ(breakdown.inconclusive, 1u);
}

TEST(LabelMismatches, DetectsInconsistentSlot) {
  const netsim::Topology topo = test::chain_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  const config::ConfigAssignment assignment = test::tiny_assignment(topo);
  // actual=99 does not match the slot's stored value.
  std::vector<CfPrediction> bogus{{0, 0, 3, 99, 0}};
  EXPECT_THROW(label_mismatches(bogus, catalog, assignment), std::logic_error);
}

TEST(ApplyGoodRecommendations, PushesOnlyTheGoodOnes) {
  const netsim::Topology topo = test::chain_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  plant(assignment.singular[0], 0, 9, config::Cause::kStaleLeftover);  // good rec
  plant(assignment.singular[0], 2, 8, config::Cause::kTrial);          // must stay
  std::vector<CfPrediction> mismatches{
      {0, 0, /*predicted=*/3, /*actual=*/9, 0},
      {0, 2, 3, 8, 2},
  };
  const std::size_t pushed = apply_good_recommendations(mismatches, catalog, assignment);
  EXPECT_EQ(pushed, 1u);
  EXPECT_EQ(assignment.singular[0].value[0], 3);  // converged to intent
  EXPECT_EQ(assignment.singular[0].value[2], 8);  // trial untouched
}

TEST(ApplyGoodRecommendations, RejectsStaleBatch) {
  const netsim::Topology topo = test::chain_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  std::vector<CfPrediction> stale{{0, 0, 3, /*actual=*/99, 0}};
  EXPECT_THROW(apply_good_recommendations(stale, catalog, assignment), std::logic_error);
}

TEST(MismatchLabelNames, MatchPaperVocabulary) {
  EXPECT_STREQ(mismatch_label_name(MismatchLabel::kUpdateLearner), "update learner");
  EXPECT_STREQ(mismatch_label_name(MismatchLabel::kGoodRecommendation), "good recommendation");
  EXPECT_STREQ(mismatch_label_name(MismatchLabel::kInconclusive), "inconclusive");
}

}  // namespace
}  // namespace auric::eval
