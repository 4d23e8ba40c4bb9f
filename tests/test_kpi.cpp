#include "smartlaunch/kpi.h"

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::smartlaunch {
namespace {

TEST(KpiModel, PerfectConfigurationScoresOne) {
  const netsim::Topology topo = test::tiny_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  const config::ConfigAssignment assignment = test::tiny_assignment(topo);
  const KpiModel kpi(topo, catalog, assignment);
  for (const netsim::Carrier& c : topo.carriers) EXPECT_DOUBLE_EQ(kpi.quality(c.id), 1.0);
}

TEST(KpiModel, DeviationsDegradeQuality) {
  const netsim::Topology topo = test::tiny_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  test::set_value(assignment.singular[0], 0, 9);  // intent stays 3
  const KpiModel kpi(topo, catalog, assignment);
  EXPECT_LT(kpi.quality(0), 1.0);
  EXPECT_DOUBLE_EQ(kpi.quality(1), 1.0);  // untouched carrier unaffected
}

TEST(KpiModel, QualityHasAFloor) {
  const netsim::Topology topo = test::tiny_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  // Corrupt everything on carrier 0.
  test::set_value(assignment.singular[0], 0, 10);
  for (std::size_t e = 0; e < topo.edge_count(); ++e) {
    if (topo.edges[e].from == 0 && assignment.pairwise[0].value[e] != config::kUnset) {
      test::set_value(assignment.pairwise[0], e, 20);
    }
  }
  KpiOptions options;
  options.penalty_per_deviation = 10.0;  // force the floor
  options.min_quality = 0.1;
  const KpiModel kpi(topo, catalog, assignment, options);
  EXPECT_DOUBLE_EQ(kpi.quality(0), 0.1);
}

TEST(KpiModel, AllQualitiesVectorMatchesAccessor) {
  const netsim::Topology topo = test::tiny_topology();
  const config::ParamCatalog catalog = test::tiny_catalog();
  const config::ConfigAssignment assignment = test::tiny_assignment(topo);
  const KpiModel kpi(topo, catalog, assignment);
  const auto& all = kpi.all_qualities();
  ASSERT_EQ(all.size(), topo.carrier_count());
  for (std::size_t c = 0; c < all.size(); ++c) {
    EXPECT_DOUBLE_EQ(all[c], kpi.quality(static_cast<netsim::CarrierId>(c)));
  }
}

}  // namespace
}  // namespace auric::smartlaunch
