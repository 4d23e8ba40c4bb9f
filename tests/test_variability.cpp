#include "eval/variability.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::eval {
namespace {

TEST(Variability, CountsDistinctValuesOverallAndPerMarket) {
  const netsim::Topology topo = test::chain_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  test::set_value(assignment.singular[0], 10, 9);  // extra value only in market 1

  const auto variability = analyze_variability(topo, catalog, assignment);
  ASSERT_EQ(variability.size(), 2u);
  const ParamVariability& singular = variability[0];
  EXPECT_EQ(singular.param, 0);
  EXPECT_EQ(singular.distinct_overall, 3u);  // {3, 7, 9}
  ASSERT_EQ(singular.distinct_per_market.size(), 2u);
  EXPECT_EQ(singular.distinct_per_market[0], 2u);
  EXPECT_EQ(singular.distinct_per_market[1], 3u);
  EXPECT_EQ(singular.configured_values, topo.carrier_count());
}

TEST(Variability, PairwiseCountsConfiguredEdgesOnly) {
  const netsim::Topology topo = test::chain_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  const config::ConfigAssignment assignment = test::tiny_assignment(topo);
  const auto variability = analyze_variability(topo, catalog, assignment);
  const ParamVariability& pairwise = variability[1];
  EXPECT_EQ(pairwise.distinct_overall, 1u);  // constant 2
  // Intra-frequency chain edges only: (m0: 4 links + m1: 2 links) x 2
  // frequencies x 2 directions = 24.
  EXPECT_EQ(pairwise.configured_values, 24u);
}

TEST(Variability, SkewnessSeesOneSidedTails) {
  const netsim::Topology topo = test::chain_topology(24, 2);
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  // Constant 3 with a couple of high outliers in market 0 -> right-skewed.
  auto& col = assignment.singular[0];
  for (std::size_t c = 0; c < col.entities(); ++c) test::set_value(col, c, 3);
  test::set_value(col, 0, 10);
  test::set_value(col, 2, 10);
  const auto variability = analyze_variability(topo, catalog, assignment);
  EXPECT_GT(variability[0].skewness, 1.0);
}

TEST(SummarizeSkewness, BucketsByBand) {
  std::vector<ParamVariability> variability(4);
  variability[0].skewness = 0.1;
  variability[1].skewness = -0.7;
  variability[2].skewness = 2.5;
  variability[3].skewness = -1.2;
  const SkewnessSummary summary = summarize_skewness(variability);
  EXPECT_EQ(summary.symmetric, 1);
  EXPECT_EQ(summary.moderate, 1);
  EXPECT_EQ(summary.high, 2);
}

}  // namespace
}  // namespace auric::eval
