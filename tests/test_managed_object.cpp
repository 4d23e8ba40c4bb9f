#include "config/managed_object.h"

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/strings.h"

namespace auric::config {
namespace {

TEST(MoPaths, FollowVendorHierarchy) {
  const netsim::Topology topo = test::tiny_topology();
  const netsim::Carrier& carrier = topo.carriers[0];   // eNodeB 0, face 0, 700
  const netsim::Carrier& neighbor = topo.carriers[2];  // eNodeB 1, face 0, 700
  std::string path = cell_mo_path(carrier);
  EXPECT_EQ(path, "ENodeBFunction=0/EUtranCellFDD=0-0-700");
  append_freq_relation(path, neighbor);
  EXPECT_EQ(path, "ENodeBFunction=0/EUtranCellFDD=0-0-700/EUtranFreqRelation=700");
  append_cell_relation(path, neighbor);
  EXPECT_EQ(path,
            "ENodeBFunction=0/EUtranCellFDD=0-0-700/EUtranFreqRelation=700/"
            "EUtranCellRelation=2");
}

TEST(MoPaths, MatchTheFormatStringsOnEveryCarrierAndEdge) {
  // The to_chars path functions against util::format references, over every
  // carrier and X2 edge of a 2-market x 5-eNodeB world.
  const netsim::Topology topo = test::small_generated_topology(7, 2, 5);
  std::size_t edges = 0;
  for (const netsim::Carrier& c : topo.carriers) {
    const std::string cell = util::format("ENodeBFunction=%d/EUtranCellFDD=%d-%d-%d", c.enodeb,
                                          c.enodeb, c.face, c.frequency_mhz);
    ASSERT_EQ(cell_mo_path(c), cell);
    for (const netsim::CarrierId to : topo.neighborhood(c.id)) {
      const netsim::Carrier& n = topo.carrier(to);
      const std::string freq = cell + util::format("/EUtranFreqRelation=%d", n.frequency_mhz);
      const std::string relation = freq + util::format("/EUtranCellRelation=%d", n.id);
      std::string appended = cell;
      append_freq_relation(appended, n);
      ASSERT_EQ(appended, freq);
      append_cell_relation(appended, n);
      ASSERT_EQ(appended, relation);
      ++edges;
    }
  }
  EXPECT_GT(edges, 0u);
}

TEST(RenderConfig, PrintsRawValuesInVendorUnits) {
  const ParamCatalog catalog = test::tiny_catalog();
  CarrierConfig config;
  config.carrier = 0;
  config.settings.push_back({"MO=1", 0, 3});   // integer domain -> "3"
  config.settings.push_back({"MO=1", 1, 5});   // 0.5-step domain -> "2.5"
  const auto lines = render_config_commands(config, catalog);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "set MO=1 toySingular 3");
  EXPECT_EQ(lines[1], "set MO=1 toyPairwise 2.5");
}

TEST(DiffConfig, EmitsOnlyChangedOrNewSettings) {
  CarrierConfig current;
  current.settings = {{"A", 0, 1}, {"B", 0, 2}, {"C", 1, 3}};
  CarrierConfig desired;
  desired.settings = {{"A", 0, 1},   // unchanged -> dropped
                      {"B", 0, 5},   // changed -> kept
                      {"D", 1, 7}};  // new -> kept
  canonicalize(current);
  canonicalize(desired);
  const auto diff = diff_config(current, desired);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff[0].mo_path, "B");
  EXPECT_EQ(diff[0].value, 5);
  EXPECT_EQ(diff[1].mo_path, "D");
}

TEST(DiffConfig, EmptyDesiredMeansNoChanges) {
  CarrierConfig current;
  current.settings = {{"A", 0, 1}};
  EXPECT_TRUE(diff_config(current, CarrierConfig{}).empty());
}

TEST(Canonicalize, SortsByPathThenParam) {
  CarrierConfig config;
  config.settings = {{"B", 1, 0}, {"A", 1, 0}, {"A", 0, 0}};
  canonicalize(config);
  EXPECT_EQ(config.settings[0].mo_path, "A");
  EXPECT_EQ(config.settings[0].param, 0);
  EXPECT_EQ(config.settings[1].mo_path, "A");
  EXPECT_EQ(config.settings[1].param, 1);
  EXPECT_EQ(config.settings[2].mo_path, "B");
}

}  // namespace
}  // namespace auric::config
