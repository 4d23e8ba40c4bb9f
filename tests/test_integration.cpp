// End-to-end properties of the full pipeline: topology -> ground truth ->
// dependency learning -> voting -> evaluation.
#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/engine.h"
#include "eval/cf_eval.h"
#include "eval/mismatch.h"
#include "test_helpers.h"

namespace auric {
namespace {

struct World {
  netsim::Topology topo;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::ConfigAssignment assignment;

  World(std::uint64_t seed, config::GroundTruthParams gt) {
    topo = test::small_generated_topology(seed, 2, 18);
    schema = netsim::AttributeSchema::standard(topo);
    gt.seed = seed + 100;
    assignment = config::GroundTruthModel(topo, schema, catalog, gt).assign();
  }

  core::AuricEngine engine(const core::AuricOptions& options) const {
    return core::AuricEngine(topo, schema, catalog, assignment, options);
  }
};

config::GroundTruthParams deterministic_world() {
  // Everything attribute-expressible: no noise, no leftovers, no trials, no
  // pockets, no hidden terrain.
  config::GroundTruthParams gt;
  gt.noise_rate = 0.0;
  gt.stale_rate = 0.0;
  gt.trial_param_prob = 0.0;
  gt.pocket_param_prob = 0.0;
  gt.terrain_param_prob = 0.0;
  return gt;
}

class IntegrationSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegrationSeedTest, AttributePureWorldIsAlmostPerfectlyPredictable) {
  World world(GetParam(), deterministic_world());
  core::AuricOptions options;
  options.use_proximity = false;
  options.max_dependent = 14;  // nothing is hidden; allow the full schema
  const double accuracy = eval::overall_accuracy(eval::evaluate_all(world.engine(options)));
  // Every value is a function of visible attributes, so CF should be
  // near-perfect (small residue from capped groups / interactions).
  EXPECT_GT(accuracy, 0.985);
}

TEST_P(IntegrationSeedTest, LocalPocketsAreWhereLocalBeatsGlobal) {
  config::GroundTruthParams gt = deterministic_world();
  gt.pocket_param_prob = 1.0;   // pockets on every parameter
  gt.pocket_site_frac = 0.25;   // and plenty of them
  World world(GetParam(), gt);

  core::AuricOptions global_options;
  global_options.use_proximity = false;
  const core::AuricOptions local_options;

  const double global_acc =
      eval::overall_accuracy(eval::evaluate_all(world.engine(global_options)));
  const double local_acc = eval::overall_accuracy(eval::evaluate_all(world.engine(local_options)));
  EXPECT_GT(local_acc, global_acc);
}

TEST_P(IntegrationSeedTest, MismatchAccountingAddsUp) {
  config::GroundTruthParams gt;  // defaults: full mess, as in the benches
  World world(GetParam(), gt);
  std::vector<eval::CfPrediction> mismatches;  // default options: the local learner
  const auto results = eval::evaluate_all(world.engine({}), &mismatches);
  std::size_t rows = 0;
  std::size_t correct = 0;
  for (const auto& r : results) {
    rows += r.rows;
    correct += r.correct;
  }
  EXPECT_EQ(rows, correct + mismatches.size());
  const eval::MismatchBreakdown breakdown =
      eval::label_mismatches(mismatches, world.catalog, world.assignment);
  EXPECT_EQ(breakdown.total, mismatches.size());
  EXPECT_EQ(breakdown.total,
            breakdown.update_learner + breakdown.good_recommendation + breakdown.inconclusive);
}

TEST_P(IntegrationSeedTest, StaleLeftoversSurfaceAsGoodRecommendations) {
  config::GroundTruthParams gt = deterministic_world();
  gt.stale_rate = 0.05;  // only stale leftovers pollute the world
  World world(GetParam(), gt);
  std::vector<eval::CfPrediction> mismatches;  // default options: the local learner
  eval::evaluate_all(world.engine({}), &mismatches);
  ASSERT_GT(mismatches.size(), 0u);
  const eval::MismatchBreakdown breakdown =
      eval::label_mismatches(mismatches, world.catalog, world.assignment);
  // The dominant label must be "good recommendation": the network is wrong,
  // the learner is right.
  EXPECT_GT(breakdown.fraction(eval::MismatchLabel::kGoodRecommendation), 0.5);
}

TEST_P(IntegrationSeedTest, VoteThresholdMonotonicity) {
  config::GroundTruthParams gt;
  World world(GetParam(), gt);
  double previous_fallbacks = -1.0;
  for (double threshold : {0.55, 0.75, 0.95}) {
    core::AuricOptions options;
    options.use_proximity = false;
    options.vote_threshold = threshold;
    std::size_t fallbacks = 0;
    for (const auto& r : eval::evaluate_all(world.engine(options))) {
      fallbacks += r.fallback_default;
    }
    // Raising the support bar can only push more rows onto the default.
    EXPECT_GE(static_cast<double>(fallbacks), previous_fallbacks);
    previous_fallbacks = static_cast<double>(fallbacks);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationSeedTest, ::testing::Values(31u, 32u));

}  // namespace
}  // namespace auric
