// ParamView: the per-parameter learning population.
//
// For a singular parameter this is one row per carrier where the parameter
// is configured; for a pair-wise parameter, one row per configured X2
// relation (Y_{j,k} in §3.1's notation). Each row carries the subject
// carrier, the neighbor (pair-wise only), the entity index into the backing
// ConfigAssignment column, and the configured value with its dense class
// code. Rows are entity-ascending, so `carrier` is sorted too.
//
// The local learner does not read views. It reads the singular parameters'
// labels from a LabelMatrix, one row of label codes per carrier across
// every singular parameter, and the pair-wise ones from PairLabelRows, the
// configured X2 cells only, grouped per subject carrier (DESIGN.md §5). A
// learned AuricEngine keeps only these stores: its views release their rows
// and keep the dictionary.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "ml/dataset.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"

namespace auric::core {

struct ParamView {
  config::ParamId param = 0;
  bool pairwise = false;

  std::vector<netsim::CarrierId> carrier;   ///< subject carrier per row
  std::vector<netsim::CarrierId> neighbor;  ///< neighbor per row (pair-wise only)
  std::vector<std::size_t> entity;          ///< carrier id / edge index per row
  std::vector<config::ValueIndex> value;    ///< configured value per row

  ml::LabelDictionary labels;               ///< distinct configured values
  std::vector<ml::ClassLabel> label;        ///< dense class code per row

  std::size_t rows() const { return value.size(); }
};

/// Position of `param` within its kind's id list — the index of its column
/// in ConfigAssignment::singular (singular params) or ::pairwise.
std::size_t kind_position(const config::ParamCatalog& catalog, config::ParamId param);

/// A label code as the label stores keep it; kNoLabel marks a carrier of a
/// LabelMatrix where the parameter is not configured (or, for a
/// market-filtered view, lies outside the market).
using LabelCell = std::uint16_t;
inline constexpr LabelCell kNoLabel = 0xFFFF;

/// One configured cell of PairLabelRows: the X2 edge, as its offset within
/// the subject carrier's edge range, and its label code.
struct PairCell {
  std::uint16_t edge = 0;  ///< edge - edge_offsets[subject]
  LabelCell label = kNoLabel;

  bool operator==(const PairCell&) const = default;
};

/// The most X2 edges one carrier may have: a PairCell's offset codes
/// 0 .. kMaxCarrierEdges - 1.
inline constexpr std::size_t kMaxCarrierEdges = 0xFFFF;

/// One parameter's labels as the local vote reads them. A singular column
/// (`topology` null) is a LabelMatrix column: carrier c's cell is
/// base[c * stride]. A pair-wise column (`topology` set) is a PairLabelRows
/// column: carrier c's configured edges are the bucket
/// cells[first[c * stride] .. first[c * stride + 1]), in edge order.
struct LabelColumn {
  const LabelCell* base = nullptr;
  const std::uint32_t* first = nullptr;
  const PairCell* cells = nullptr;
  std::size_t stride = 1;
  std::size_t carriers = 0;
  const netsim::Topology* topology = nullptr;

  /// Singular: the label of `carrier`, or -1 when it has none.
  ml::ClassLabel carrier_label(std::size_t carrier) const {
    const LabelCell cell = base[carrier * stride];
    return cell == kNoLabel ? -1 : static_cast<ml::ClassLabel>(cell);
  }

  /// Pair-wise: the configured edges of subject `carrier`.
  std::span<const PairCell> bucket(std::size_t carrier) const {
    const std::uint32_t* f = first + carrier * stride;
    return {cells + f[0], cells + f[1]};
  }

  /// Label of `entity` (carrier id, or edge position for a pair-wise
  /// column), or -1 when it has none.
  ml::ClassLabel label(std::size_t entity) const {
    if (topology == nullptr) return carrier_label(entity);
    const auto subject = static_cast<std::size_t>(topology->edges[entity].from);
    const std::size_t offset = entity - topology->edge_offsets[subject];
    for (const PairCell& cell : bucket(subject)) {
      if (std::size_t{cell.edge} == offset) return static_cast<ml::ClassLabel>(cell.label);
    }
    return -1;
  }

  /// Size of the entity space: carriers, or X2 edges for a pair-wise column.
  std::size_t entities() const { return topology == nullptr ? carriers : topology->edge_count(); }

  /// Calls `visit(entity, label)` for every configured entity, in entity
  /// order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    if (topology == nullptr) {
      for (std::size_t c = 0; c < carriers; ++c) {
        const ml::ClassLabel label = carrier_label(c);
        if (label >= 0) visit(c, label);
      }
      return;
    }
    for (std::size_t c = 0; c < carriers; ++c) {
      const std::size_t edges = topology->edge_offsets[c];
      for (const PairCell& cell : bucket(c)) {
        visit(edges + cell.edge, static_cast<ml::ClassLabel>(cell.label));
      }
    }
  }
};

/// Carrier-major label matrix of the singular parameters: one row per
/// carrier, one column per parameter (its kind_position). The local vote
/// reads a candidate's row once for every parameter of a request instead of
/// one index array per parameter (DESIGN.md §5).
class LabelMatrix {
 public:
  LabelMatrix() = default;
  /// `entities` rows of `columns` cells, all kNoLabel.
  LabelMatrix(std::size_t entities, std::size_t columns);

  /// Writes the label of each row of `view` into `column` at the row's
  /// entity. Cells of entities the view lacks are left as they are, so a
  /// fresh column ends up exactly the view's; O(rows), where clearing the
  /// column would touch every entity's row. Throws std::invalid_argument
  /// naming `param_name` when the view's dictionary has more values than a
  /// cell can code (check_label_width).
  void assign_column(std::size_t column, const ParamView& view, std::string_view param_name);

  /// Sets one cell; `label` -1 stores kNoLabel.
  void set(std::size_t entity, std::size_t column, ml::ClassLabel label) {
    cells_[entity * columns_ + column] =
        label < 0 ? kNoLabel : static_cast<LabelCell>(label);
  }

  /// `column` as a strided view.
  LabelColumn column(std::size_t column) const {
    return {.base = cells_.data() + column, .stride = columns_, .carriers = entities()};
  }

  std::size_t entities() const { return columns_ == 0 ? 0 : cells_.size() / columns_; }

  bool operator==(const LabelMatrix&) const = default;

 private:
  std::size_t columns_ = 0;
  std::vector<LabelCell> cells_;  // [entity * columns_ + column]
};

/// Sparse pair-wise label rows in CSR form, grouped per subject carrier
/// (DESIGN.md §5): only the configured X2 cells of K pair-wise parameters.
/// Bucket (c, k), carrier c's configured edges under column k, is
/// cells[first[c * K + k] .. first[c * K + k + 1]), edges ascending. The
/// order is carrier-major so that a candidate's K buckets share one offset
/// row and adjacent cells. Footprint: 4 * (C * K + 1) + 4 * configured bytes.
class PairLabelRows {
 public:
  PairLabelRows() = default;
  /// The one builder: one pass over each of `columns` (an assignment's
  /// pair-wise columns), coding column k's values through `labels[k]`. With
  /// `market` set, only relations whose subject carrier lies in it are
  /// kept. Throws std::invalid_argument naming the first carrier with more
  /// than kMaxCarrierEdges edges, and std::logic_error when a kept value is
  /// missing from its column's dictionary.
  PairLabelRows(const netsim::Topology& topology, std::span<const config::ParamColumn> columns,
                std::span<const ml::LabelDictionary* const> labels,
                std::optional<netsim::MarketId> market = std::nullopt);

  /// Pair-wise column `k`.
  LabelColumn column(std::size_t k) const {
    return {.first = first_.data() + k,
            .cells = cells_.data(),
            .stride = columns_,
            .carriers = topology_->carrier_count(),
            .topology = topology_};
  }

  std::size_t columns() const { return columns_; }
  /// Configured cells over every column.
  std::size_t configured_count() const { return cells_.size(); }
  /// Heap bytes of the offsets and cells, capacity included.
  std::size_t heap_bytes() const {
    return first_.capacity() * sizeof(std::uint32_t) + cells_.capacity() * sizeof(PairCell);
  }

  bool operator==(const PairLabelRows&) const = default;

 private:
  const netsim::Topology* topology_ = nullptr;
  std::size_t columns_ = 0;
  std::vector<std::uint32_t> first_;  ///< C * K + 1 bucket starts
  std::vector<PairCell> cells_;
};

/// Throws std::invalid_argument naming `param_name` when `labels` distinct
/// values do not fit a LabelCell (codes must stay below kNoLabel).
void check_label_width(std::size_t labels, std::string_view param_name);

/// Builds the view for catalog parameter `param` over the configured slots
/// of `assignment`. When `market` is set, only rows whose subject carrier
/// belongs to that market are included (per-market evaluation).
ParamView build_param_view(const netsim::Topology& topology, const config::ParamCatalog& catalog,
                           const config::ConfigAssignment& assignment, config::ParamId param,
                           std::optional<netsim::MarketId> market = std::nullopt);

/// Materializes a ParamView as a CategoricalDataset for the baseline
/// learners: one column per carrier attribute, plus — for pair-wise
/// parameters — one "nbr_"-prefixed column per neighbor attribute (§4.1:
/// "for pair-wise parameters, we use both the attributes of the carriers and
/// their corresponding neighbors").
ml::CategoricalDataset to_categorical_dataset(
    const ParamView& view, const netsim::AttributeSchema& schema,
    const std::vector<std::vector<netsim::AttrCode>>& attr_codes);

}  // namespace auric::core
