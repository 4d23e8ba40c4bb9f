#include "core/dependency.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(5, 2, 25);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  std::vector<std::vector<netsim::AttrCode>> codes = schema.encode_all(topo);
  config::ParamCatalog catalog = test::tiny_catalog();
};

/// Builds a singular view whose value is a pure function of one attribute.
ParamView planted_view(const Fixture& f, const std::string& attr_name) {
  const std::size_t attr = f.schema.index_of(attr_name);
  config::ConfigAssignment assignment;
  std::vector<config::ValueIndex> value(f.topo.carrier_count());
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) value[c] = f.codes[attr][c] % 11;
  assignment.singular.push_back(config::ParamColumn::from_dense(
      value, value,
      std::vector<config::Cause>(f.topo.carrier_count(), config::Cause::kAttributeRule)));
  assignment.pairwise.emplace_back(f.topo.edge_count());
  return build_param_view(f.topo, f.catalog, assignment, 0);
}

TEST(Dependency, DiscoversPlantedAttribute) {
  Fixture f;
  const ParamView view = planted_view(f, "morphology");
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  ASSERT_FALSE(model.dependent.empty());
  // The causal attribute must be the top-ranked dependent.
  EXPECT_EQ(model.dependent.front().attr, f.schema.index_of("morphology"));
  EXPECT_FALSE(model.dependent.front().neighbor_side);
}

TEST(Dependency, IndependentLabelsFlagNothing) {
  Fixture f;
  ParamView view = planted_view(f, "morphology");
  // Replace labels by a hash of the carrier id: independent of every attr.
  for (std::size_t r = 0; r < view.rows(); ++r) {
    view.value[r] = static_cast<config::ValueIndex>(
        util::hash_combine({99, static_cast<std::uint64_t>(view.carrier[r])}) % 5);
  }
  view.labels = ml::LabelDictionary::build(view.value);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    view.label[r] = view.labels.code_of(view.value[r]);
  }
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  // At p=0.01 over 14 tests, allow at most one false positive.
  EXPECT_LE(model.dependent.size(), 1u);
}

TEST(Dependency, MaxDependentCapsStrongestFirst) {
  Fixture f;
  const ParamView view = planted_view(f, "carrier_frequency");
  DependencyOptions tight;
  tight.max_dependent = 2;
  const DependencyModel capped = learn_dependencies(view, f.codes, f.schema, tight);
  EXPECT_LE(capped.dependent.size(), 2u);
  DependencyOptions loose;
  loose.max_dependent = 0;  // unlimited
  const DependencyModel full = learn_dependencies(view, f.codes, f.schema, loose);
  EXPECT_GE(full.dependent.size(), capped.dependent.size());
  // The capped set must be a prefix of the full ranked set.
  for (std::size_t i = 0; i < capped.dependent.size(); ++i) {
    EXPECT_EQ(capped.dependent[i], full.dependent[i]);
  }
}

TEST(Dependency, TestsEveryAttributeOnce) {
  Fixture f;
  const ParamView view = planted_view(f, "vendor");
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  EXPECT_EQ(model.tests.size(), f.schema.attribute_count());  // singular: carrier side only
  for (const DependencyTest& test : model.tests) EXPECT_FALSE(test.ref.neighbor_side);
}

TEST(Dependency, PairwiseTestsNeighborSideToo) {
  Fixture f;
  config::ConfigAssignment assignment;
  assignment.singular.emplace_back(f.topo.carrier_count());
  std::vector<config::ValueIndex> value(f.topo.edge_count(), config::kUnset);
  const std::size_t freq = f.schema.index_of("carrier_frequency");
  for (std::size_t e = 0; e < f.topo.edge_count(); ++e) {
    const auto& edge = f.topo.edges[e];
    const bool intra = f.topo.carrier(edge.from).frequency_mhz ==
                       f.topo.carrier(edge.to).frequency_mhz;
    if (!intra) continue;
    // Value keyed on the NEIGHBOR's frequency code.
    value[e] = f.codes[freq][static_cast<std::size_t>(edge.to)] % 11;
  }
  assignment.pairwise.push_back(config::ParamColumn::from_dense(
      value, value,
      std::vector<config::Cause>(f.topo.edge_count(), config::Cause::kAttributeRule)));
  const ParamView view = build_param_view(f.topo, f.catalog, assignment, 1);
  const DependencyModel model = learn_dependencies(view, f.codes, f.schema, {});
  EXPECT_EQ(model.tests.size(), 2 * f.schema.attribute_count());
  ASSERT_FALSE(model.dependent.empty());
}

/// The per-row tally the batch kernel replaced, kept here as the reference:
/// zeroed tables, then ContingencyState::apply once per view row.
ContingencyState per_row_contingency(const ParamView& view,
                                     const std::vector<std::vector<netsim::AttrCode>>& codes,
                                     const netsim::AttributeSchema& schema) {
  ContingencyState state;
  for (std::size_t a = 0; a < schema.attribute_count(); ++a) state.refs.push_back({false, a});
  if (view.pairwise) {
    for (std::size_t a = 0; a < schema.attribute_count(); ++a) state.refs.push_back({true, a});
  }
  for (const AttrRef& ref : state.refs) {
    state.tables.push_back(
        ml::ContingencyTable::zeros(schema.cardinality(ref.attr), view.labels.size()));
  }
  for (std::size_t r = 0; r < view.rows(); ++r) {
    state.apply(codes, view.carrier[r], view.neighbor[r], view.label[r], 1);
  }
  return state;
}

/// build_contingency against the per-row reference: equal tables cell for
/// cell, and bit-identical chi-square results and dependent sets.
void expect_batch_matches_per_row(const ParamView& view,
                                  const std::vector<std::vector<netsim::AttrCode>>& codes,
                                  const netsim::AttributeSchema& schema, const std::string& what) {
  const ContingencyState batch = build_contingency(view, codes, schema);
  const ContingencyState reference = per_row_contingency(view, codes, schema);
  ASSERT_EQ(batch.refs, reference.refs) << what;
  ASSERT_EQ(batch.tables.size(), reference.tables.size()) << what;
  for (std::size_t t = 0; t < batch.tables.size(); ++t) {
    const ml::ContingencyTable& a = batch.tables[t];
    const ml::ContingencyTable& b = reference.tables[t];
    const std::string where = what + " " + attr_ref_name(batch.refs[t], schema);
    EXPECT_EQ(a.rows, b.rows) << where;
    EXPECT_EQ(a.cols, b.cols) << where;
    EXPECT_EQ(a.total, b.total) << where;
    EXPECT_EQ(a.counts, b.counts) << where;
  }
  const DependencyModel x = dependencies_from_contingency(batch);
  const DependencyModel y = dependencies_from_contingency(reference);
  EXPECT_EQ(x.dependent, y.dependent) << what;
  ASSERT_EQ(x.tests.size(), y.tests.size()) << what;
  for (std::size_t i = 0; i < x.tests.size(); ++i) {
    EXPECT_EQ(x.tests[i].ref, y.tests[i].ref) << what;
    EXPECT_EQ(x.tests[i].result.df, y.tests[i].result.df) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.tests[i].result.statistic),
              std::bit_cast<std::uint64_t>(y.tests[i].result.statistic))
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.tests[i].result.p_value),
              std::bit_cast<std::uint64_t>(y.tests[i].result.p_value))
        << what;
  }
}

TEST(Dependency, BatchTallyMatchesPerRowTallyOnEveryParameter) {
  // The default world (28 markets x 55 eNodeBs) under the ground-truth
  // configuration: all 65 parameters, over the full population and over one
  // market's subjects.
  const netsim::Topology topo = netsim::generate_topology(netsim::TopologyParams{});
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const std::vector<std::vector<netsim::AttrCode>> codes = schema.encode_all(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog).assign();
  ASSERT_EQ(catalog.size(), 65u);
  std::size_t pairwise = 0;
  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const auto param = static_cast<config::ParamId>(p);
    const std::string name = catalog.at(param).name;
    const ParamView full = build_param_view(topo, catalog, assignment, param);
    ASSERT_GT(full.rows(), 0u) << name;
    pairwise += full.pairwise ? 1 : 0;
    expect_batch_matches_per_row(full, codes, schema, name);
    const ParamView market = build_param_view(topo, catalog, assignment, param, 3);
    expect_batch_matches_per_row(market, codes, schema, name + " market 3");
  }
  EXPECT_GT(pairwise, 0u);
}

TEST(Dependency, AttrRefNames) {
  Fixture f;
  EXPECT_EQ(attr_ref_name({false, f.schema.index_of("morphology")}, f.schema), "morphology");
  EXPECT_EQ(attr_ref_name({true, f.schema.index_of("morphology")}, f.schema), "nbr_morphology");
}

}  // namespace
}  // namespace auric::core
