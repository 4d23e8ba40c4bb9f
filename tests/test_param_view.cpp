#include "core/param_view.h"

#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

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
  // Two columns, so the stride is exercised: the pair-wise view's column is
  // column 1 of the pair-wise rows (column 0 configures nothing), the
  // singular view goes into column 0 of a carrier matrix.
  const std::vector<config::ParamColumn> pair_columns{config::ParamColumn(f.topo.edge_count()),
                                                      f.assignment.pairwise[0]};
  const ml::LabelDictionary none;
  const std::vector<const ml::LabelDictionary*> dictionaries{&none, &pairs.labels};
  const PairLabelRows edges(f.topo, pair_columns, dictionaries);
  LabelMatrix carriers(f.topo.carrier_count(), 2);
  carriers.assign_column(0, singles, "toySingular");
  for (const auto& [labels, other, view] :
       {std::tuple{edges.column(1), edges.column(0), &pairs},
        std::tuple{carriers.column(0), carriers.column(1), &singles}}) {
    EXPECT_EQ(labels.stride, 2u);
    std::size_t configured = 0;
    std::size_t r = 0;
    for (std::size_t e = 0; e < labels.entities(); ++e) {
      if (r < view->rows() && view->entity[r] == e) {
        EXPECT_EQ(labels.label(e), view->label[r]);
        ++r;
      } else {
        EXPECT_EQ(labels.label(e), -1);
      }
      if (labels.label(e) >= 0) ++configured;
      // The other column was never assigned.
      EXPECT_EQ(other.label(e), -1);
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

/// A dense (column, edge) -> label model of pair-wise rows.
using DenseLabels = std::vector<std::vector<ml::ClassLabel>>;

/// Random columns over `topo`'s edges: each edge configured with
/// probability 1/3, values in [0, 20).
std::vector<config::ParamColumn> random_columns(const netsim::Topology& topo, std::size_t k,
                                                std::mt19937& rng) {
  std::vector<config::ParamColumn> columns;
  for (std::size_t col = 0; col < k; ++col) {
    config::ParamColumn column(topo.edge_count());
    for (std::size_t e = 0; e < topo.edge_count(); ++e) {
      if (rng() % 3 != 0) continue;
      const auto v = static_cast<config::ValueIndex>(rng() % 20);
      column.append(e, v, v, config::Cause::kDefault);
    }
    columns.push_back(std::move(column));
  }
  return columns;
}

/// Builds the rows of `columns` with each column's own dictionary, and the
/// dense reference the rows must match (cells outside `market` unset).
std::pair<PairLabelRows, DenseLabels> build_with_reference(
    const netsim::Topology& topo, const std::vector<config::ParamColumn>& columns,
    std::vector<ml::LabelDictionary>& dictionaries,
    std::optional<netsim::MarketId> market = std::nullopt) {
  dictionaries.clear();
  DenseLabels dense;
  for (const config::ParamColumn& column : columns) {
    std::vector<config::ValueIndex> values;
    for (std::size_t i = 0; i < column.configured_count(); ++i) {
      values.push_back(column.value_at(i));
    }
    dictionaries.push_back(ml::LabelDictionary::build(values));
    std::vector<ml::ClassLabel> labels(topo.edge_count(), -1);
    for (std::size_t i = 0; i < column.configured_count(); ++i) {
      const std::size_t e = column.entity(i);
      if (market && topo.carrier(topo.edges[e].from).market != *market) continue;
      labels[e] = dictionaries.back().code_of(column.value_at(i));
    }
    dense.push_back(std::move(labels));
  }
  std::vector<const ml::LabelDictionary*> pointers;
  for (const ml::LabelDictionary& d : dictionaries) pointers.push_back(&d);
  return {PairLabelRows(topo, columns, pointers, market), std::move(dense)};
}

/// Every way the local vote and the relearn diff read the rows agrees with
/// the dense model: bucket contents and order, single-cell lookups and the
/// entity-order walk.
void expect_matches(const netsim::Topology& topo, const PairLabelRows& rows,
                    const DenseLabels& dense) {
  ASSERT_EQ(rows.columns(), dense.size());
  std::size_t configured = 0;
  for (std::size_t k = 0; k < dense.size(); ++k) {
    SCOPED_TRACE("column " + std::to_string(k));
    const LabelColumn column = rows.column(k);
    ASSERT_EQ(column.entities(), topo.edge_count());
    for (std::size_t c = 0; c < topo.carrier_count(); ++c) {
      std::vector<PairCell> expected;
      for (std::size_t e = topo.edge_offsets[c]; e < topo.edge_offsets[c + 1]; ++e) {
        if (dense[k][e] < 0) continue;
        expected.push_back({static_cast<std::uint16_t>(e - topo.edge_offsets[c]),
                            static_cast<LabelCell>(dense[k][e])});
      }
      const std::span<const PairCell> bucket = column.bucket(c);
      ASSERT_EQ(std::vector<PairCell>(bucket.begin(), bucket.end()), expected) << "carrier " << c;
      configured += expected.size();
    }
    for (std::size_t e = 0; e < topo.edge_count(); ++e) {
      ASSERT_EQ(column.label(e), dense[k][e]) << "edge " << e;
    }
    std::vector<std::pair<std::size_t, ml::ClassLabel>> walked;
    column.for_each([&](std::size_t e, ml::ClassLabel label) { walked.emplace_back(e, label); });
    std::vector<std::pair<std::size_t, ml::ClassLabel>> expected;
    for (std::size_t e = 0; e < topo.edge_count(); ++e) {
      if (dense[k][e] >= 0) expected.emplace_back(e, dense[k][e]);
    }
    EXPECT_EQ(walked, expected);
  }
  EXPECT_EQ(rows.configured_count(), configured);
  EXPECT_EQ(rows.heap_bytes(),
            4 * (topo.carrier_count() * dense.size() + 1) + 4 * configured);
}

TEST(PairLabelRows, MatchesADenseReferenceUnderRandomEdits) {
  netsim::Topology topo = test::small_generated_topology(11, 2, 4);
  // Carriers with no X2 edges: their buckets are empty in every column.
  for (std::size_t c = 0; c < topo.carrier_count(); c += 7) topo.neighbors[c].clear();
  topo.finalize_edges();
  std::mt19937 rng(2024);
  std::vector<config::ParamColumn> columns = random_columns(topo, 5, rng);
  std::vector<ml::LabelDictionary> dictionaries;
  {
    const auto [rows, dense] = build_with_reference(topo, columns, dictionaries);
    expect_matches(topo, rows, dense);
    EXPECT_TRUE(rows.column(0).bucket(0).empty());
    EXPECT_GT(rows.configured_count(), 0u);
  }
  for (const netsim::MarketId market : {netsim::MarketId{0}, netsim::MarketId{1}}) {
    const auto [rows, dense] = build_with_reference(topo, columns, dictionaries, market);
    expect_matches(topo, rows, dense);
  }

  // Rounds of relearn-like edits (updates, erases, new slots, values the
  // dictionary has not seen): a rebuild matches the edited model.
  for (int round = 0; round < 4; ++round) {
    for (config::ParamColumn& column : columns) {
      for (int edit = 0; edit < 40; ++edit) {
        const std::size_t e = rng() % topo.edge_count();
        const auto v = rng() % 4 == 0 ? config::kUnset
                                      : static_cast<config::ValueIndex>(rng() % (20 + 5 * round));
        test::set_value(column, e, v);
      }
    }
    const auto [rows, dense] = build_with_reference(topo, columns, dictionaries);
    expect_matches(topo, rows, dense);
  }
}

TEST(PairLabelRows, RefusesACarrierWithMoreEdgesThanAnOffsetCodes) {
  // Carrier 1 relates to carrier 0 over `edges` parallel relations (the
  // builder reads only the edge ranges); one cell sits on the last edge.
  const auto build = [](std::size_t edges) {
    netsim::Topology topo;
    topo.carriers.resize(3);
    topo.edges.assign(edges, netsim::X2Edge{1, 0});
    topo.edge_offsets = {0, 0, edges, edges};
    config::ParamColumn column(edges);
    column.append(edges - 1, 6, 6, config::Cause::kDefault);
    const ml::LabelDictionary labels{{6}};
    const std::vector<const ml::LabelDictionary*> dictionaries{&labels};
    const PairLabelRows rows(topo, std::span(&column, 1), dictionaries);
    EXPECT_EQ(rows.column(0).label(edges - 1), 0);
    EXPECT_EQ(std::size_t{rows.column(0).bucket(1).front().edge}, edges - 1);
  };
  EXPECT_NO_THROW(build(kMaxCarrierEdges));
  try {
    build(kMaxCarrierEdges + 1);
    FAIL() << "a carrier with 65536 edges was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("carrier 1 "), std::string::npos) << e.what();
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
