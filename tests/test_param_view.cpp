#include "core/param_view.h"

#include <stdexcept>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::tiny_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
};

TEST(ParamView, SingularCoversAllConfiguredCarriers) {
  Fixture f;
  const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 0);
  EXPECT_FALSE(view.pairwise);
  EXPECT_EQ(view.rows(), 6u);
  // Two distinct values: 3 (low band) and 7 (mid band).
  EXPECT_EQ(view.labels.size(), 2u);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const auto band = f.topo.carrier(view.carrier[r]).band;
    EXPECT_EQ(view.value[r], band == netsim::Band::kLow ? 3 : 7);
    EXPECT_EQ(view.neighbor[r], netsim::kInvalidCarrier);
    EXPECT_EQ(view.entity[r], static_cast<std::size_t>(view.carrier[r]));
  }
}

TEST(ParamView, MarketFilterRestrictsRows) {
  Fixture f;
  const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 0, netsim::MarketId{1});
  EXPECT_EQ(view.rows(), 2u);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    EXPECT_EQ(f.topo.carrier(view.carrier[r]).market, 1);
  }
}

TEST(ParamView, PairwiseOnlyIntraFrequencyEdges) {
  Fixture f;
  const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 1);
  EXPECT_TRUE(view.pairwise);
  // Intra-frequency edges in the fixture: 0<->2 and 1<->3 (both directions).
  EXPECT_EQ(view.rows(), 4u);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    EXPECT_EQ(f.topo.carrier(view.carrier[r]).frequency_mhz,
              f.topo.carrier(view.neighbor[r]).frequency_mhz);
    EXPECT_EQ(view.value[r], 2);
  }
}

TEST(ParamView, RowArraysHoldNoSlack) {
  Fixture f;
  for (const std::optional<netsim::MarketId> market :
       {std::optional<netsim::MarketId>{}, std::optional<netsim::MarketId>{1}}) {
    for (config::ParamId param : {0, 1}) {
      const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, param, market);
      EXPECT_EQ(view.carrier.capacity(), view.rows());
      EXPECT_EQ(view.neighbor.capacity(), view.rows());
      EXPECT_EQ(view.entity.capacity(), view.rows());
      EXPECT_EQ(view.value.capacity(), view.rows());
      EXPECT_EQ(view.label.capacity(), view.rows());
    }
  }
}

TEST(LabelMatrix, ColumnHoldsEachRowLabelAtItsEntity) {
  Fixture f;
  const ParamView pairs = build_param_view(f.topo, f.catalog, f.assignment, 1);
  const ParamView singles = build_param_view(f.topo, f.catalog, f.assignment, 0);
  // Two columns, so the stride is exercised: the pair-wise view goes into
  // column 1 of an edge matrix, the singular one into column 0 of a
  // carrier matrix.
  LabelMatrix edges(f.topo.edge_count(), 2);
  edges.assign_column(1, pairs, "toyPairwise");
  LabelMatrix carriers(f.topo.carrier_count(), 2);
  carriers.assign_column(0, singles, "toySingular");
  for (const auto& [matrix, column, view] : {std::tuple{&edges, std::size_t{1}, &pairs},
                                             std::tuple{&carriers, std::size_t{0}, &singles}}) {
    const LabelColumn labels = matrix->column(column, view->pairwise ? &f.topo : nullptr);
    EXPECT_EQ(labels.stride, 2u);
    std::size_t configured = 0;
    std::size_t r = 0;
    for (std::size_t e = 0; e < matrix->entities(); ++e) {
      if (r < view->rows() && view->entity[r] == e) {
        EXPECT_EQ(labels.label(e), view->label[r]);
        ++r;
      } else {
        EXPECT_EQ(labels.label(e), -1);
      }
      if (labels.label(e) >= 0) ++configured;
      // The other column was never assigned.
      EXPECT_EQ(matrix->column(1 - column).label(e), -1);
    }
    EXPECT_EQ(configured, view->rows());
  }

  // A market-filtered view fills only its market's entities.
  const ParamView market1 =
      build_param_view(f.topo, f.catalog, f.assignment, 0, netsim::MarketId{1});
  LabelMatrix filtered(f.topo.carrier_count(), 1);
  filtered.assign_column(0, market1, "toySingular");
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    const bool in_market = f.topo.carriers[c].market == 1;
    EXPECT_EQ(filtered.column(0).label(c) >= 0, in_market) << "carrier " << c;
  }
  carriers.set(0, 1, 4);
  EXPECT_EQ(carriers.column(1).label(0), 4);
  carriers.set(0, 1, -1);
  EXPECT_EQ(carriers.column(1).label(0), -1);
}

TEST(LabelMatrix, RefusesADictionaryWiderThanACell) {
  Fixture f;
  ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 0);
  LabelMatrix matrix(f.topo.carrier_count(), 1);
  view.labels.values.resize(kNoLabel);  // codes 0..0xFFFE: the widest that fits
  EXPECT_NO_THROW(matrix.assign_column(0, view, "toySingular"));
  view.labels.values.resize(std::size_t{kNoLabel} + 1);
  try {
    matrix.assign_column(0, view, "toySingular");
    FAIL() << "a 65536-value dictionary was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("toySingular"), std::string::npos) << e.what();
  }
}

TEST(ParamView, LabelsRoundTripValues) {
  Fixture f;
  const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 0);
  for (std::size_t r = 0; r < view.rows(); ++r) {
    EXPECT_EQ(view.labels.values[static_cast<std::size_t>(view.label[r])], view.value[r]);
  }
}

TEST(ToCategoricalDataset, SingularHasOneColumnPerAttribute) {
  Fixture f;
  const auto codes = f.schema.encode_all(f.topo);
  const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 0);
  const ml::CategoricalDataset data = to_categorical_dataset(view, f.schema, codes);
  EXPECT_EQ(data.num_attributes(), f.schema.attribute_count());
  EXPECT_EQ(data.rows(), view.rows());
  data.check();
}

TEST(ToCategoricalDataset, PairwiseAddsNeighborColumns) {
  Fixture f;
  const auto codes = f.schema.encode_all(f.topo);
  const ParamView view = build_param_view(f.topo, f.catalog, f.assignment, 1);
  const ml::CategoricalDataset data = to_categorical_dataset(view, f.schema, codes);
  EXPECT_EQ(data.num_attributes(), 2 * f.schema.attribute_count());
  EXPECT_EQ(data.column_names[f.schema.attribute_count()], "nbr_carrier_frequency");
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const std::size_t freq = f.schema.index_of("carrier_frequency");
    // Intra-frequency relation: carrier and neighbor share the frequency code.
    EXPECT_EQ(data.columns[freq][r], data.columns[f.schema.attribute_count() + freq][r]);
  }
  data.check();
}

}  // namespace
}  // namespace auric::core
