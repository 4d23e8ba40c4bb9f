// ParamView: the per-parameter learning population.
//
// For a singular parameter this is one row per carrier where the parameter
// is configured; for a pair-wise parameter, one row per configured X2
// relation (Y_{j,k} in §3.1's notation). Each row carries the subject
// carrier, the neighbor (pair-wise only), the entity index into the backing
// ConfigAssignment column, and the configured value with its dense class
// code. Rows are entity-ascending, so `carrier` is sorted too.
//
// The local learner does not read views: it reads a LabelMatrix, which
// holds one row of label codes per entity (carrier or X2 edge) across every
// parameter of that kind, so a candidate's labels for all parameters sit in
// one contiguous row (DESIGN.md §5). A learned AuricEngine keeps only the
// matrices: its views release their rows and keep the dictionary.
#pragma once

#include <cstdint>
#include <optional>
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

/// A label code as a LabelMatrix stores it; kNoLabel marks an entity where
/// the parameter is not configured (or, for a market-filtered view, lies
/// outside the market).
using LabelCell = std::uint16_t;
inline constexpr LabelCell kNoLabel = 0xFFFF;

/// One parameter's column of a LabelMatrix: the cell of entity e is
/// base[e * stride]. For a pair-wise parameter `topology` is set: entities
/// are its X2 edges, and the edges of subject carrier c are the range
/// edge_offsets[c] .. edge_offsets[c + 1]. For a singular parameter
/// `topology` is null and entities are carrier ids.
struct LabelColumn {
  const LabelCell* base = nullptr;
  std::size_t stride = 1;
  const netsim::Topology* topology = nullptr;

  /// Dense label of `entity`, or -1 when it has none.
  ml::ClassLabel label(std::size_t entity) const {
    const LabelCell cell = base[entity * stride];
    return cell == kNoLabel ? -1 : static_cast<ml::ClassLabel>(cell);
  }
};

/// Entity-major label matrix for one parameter kind: one row per entity
/// (carrier id for singular parameters, Topology::edges position for
/// pair-wise ones), one column per parameter (its kind_position). The
/// local vote reads a candidate's row once for every parameter of a request
/// instead of one index array per parameter (DESIGN.md §5).
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

  /// `column` as a strided view; pass the topology for a pair-wise matrix.
  LabelColumn column(std::size_t column, const netsim::Topology* topology = nullptr) const {
    return {cells_.data() + column, columns_, topology};
  }

  std::size_t entities() const { return columns_ == 0 ? 0 : cells_.size() / columns_; }

  bool operator==(const LabelMatrix&) const = default;

 private:
  std::size_t columns_ = 0;
  std::vector<LabelCell> cells_;  // [entity * columns_ + column]
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
