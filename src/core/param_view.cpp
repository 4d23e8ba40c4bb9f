#include "core/param_view.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/strings.h"

namespace auric::core {

std::size_t kind_position(const config::ParamCatalog& catalog, config::ParamId param) {
  const auto& ids = catalog.at(param).kind == config::ParamKind::kSingular
                        ? catalog.singular_ids()
                        : catalog.pairwise_ids();
  const auto it = std::find(ids.begin(), ids.end(), param);
  if (it == ids.end()) throw std::logic_error("param not present in catalog kind list");
  return static_cast<std::size_t>(it - ids.begin());
}

ParamView build_param_view(const netsim::Topology& topology, const config::ParamCatalog& catalog,
                           const config::ConfigAssignment& assignment, config::ParamId param,
                           std::optional<netsim::MarketId> market) {
  ParamView view;
  view.param = param;
  view.pairwise = catalog.at(param).kind == config::ParamKind::kPairwise;
  const std::size_t pos = kind_position(catalog, param);
  const config::ParamColumn& col =
      view.pairwise ? assignment.pairwise.at(pos) : assignment.singular.at(pos);

  const auto subject = [&](std::size_t e) {
    return view.pairwise ? topology.edges[e].from : static_cast<netsim::CarrierId>(e);
  };
  const auto want = [&](std::size_t i) {
    return !market || topology.carrier(subject(col.entity(i))).market == *market;
  };

  // Exact-size the row arrays: push_back growth leaves up to half of each
  // array as slack, and the engine keeps 65 views resident.
  std::size_t rows = 0;
  if (!market) {
    rows = col.configured_count();
  } else {
    for (std::size_t i = 0; i < col.configured_count(); ++i) rows += want(i) ? 1 : 0;
  }
  view.carrier.reserve(rows);
  view.neighbor.reserve(rows);
  view.entity.reserve(rows);
  view.value.reserve(rows);
  for (std::size_t i = 0; i < col.configured_count(); ++i) {
    if (!want(i)) continue;
    const std::size_t e = col.entity(i);
    view.carrier.push_back(subject(e));
    view.neighbor.push_back(view.pairwise ? topology.edges[e].to : netsim::kInvalidCarrier);
    view.entity.push_back(e);
    view.value.push_back(col.value_at(i));
  }

  view.labels = ml::LabelDictionary::build(view.value);
  const std::vector<ml::ClassLabel> code = view.labels.dense_codes();
  view.label.reserve(view.value.size());
  for (config::ValueIndex v : view.value) view.label.push_back(code[static_cast<std::size_t>(v)]);
  return view;
}

void check_label_width(std::size_t labels, std::string_view param_name) {
  if (labels > kNoLabel) {
    throw std::invalid_argument(util::format(
        "parameter %.*s has %zu distinct values, more than a %zu-bit label cell codes (%u)",
        static_cast<int>(param_name.size()), param_name.data(), labels,
        8 * sizeof(LabelCell), static_cast<unsigned>(kNoLabel)));
  }
}

LabelMatrix::LabelMatrix(std::size_t entities, std::size_t columns)
    : columns_(columns), cells_(entities * columns, kNoLabel) {}

void LabelMatrix::assign_column(std::size_t column, const ParamView& view,
                                std::string_view param_name) {
  check_label_width(view.labels.size(), param_name);
  for (std::size_t r = 0; r < view.rows(); ++r) set(view.entity[r], column, view.label[r]);
}

PairLabelRows::PairLabelRows(const netsim::Topology& topology,
                             std::span<const config::ParamColumn> columns,
                             std::span<const ml::LabelDictionary* const> labels,
                             std::optional<netsim::MarketId> market)
    : topology_(&topology), columns_(columns.size()) {
  if (labels.size() != columns.size()) {
    throw std::invalid_argument("PairLabelRows: one dictionary per column required");
  }
  const std::size_t carriers = topology.carrier_count();
  for (std::size_t c = 0; c < carriers; ++c) {
    const std::size_t edges = topology.edge_offsets[c + 1] - topology.edge_offsets[c];
    if (edges > kMaxCarrierEdges) {
      throw std::invalid_argument(util::format(
          "carrier %zu has %zu X2 edges, more than a pair-wise label cell's edge offset codes "
          "(%zu)",
          c, edges, kMaxCarrierEdges));
    }
  }
  const auto subject = [&](std::size_t edge) {
    return static_cast<std::size_t>(topology.edges[edge].from);
  };
  const auto kept = [&](std::size_t c) {
    return !market || topology.carriers[c].market == *market;
  };

  // Count each bucket into the start slot after it, prefix-sum, fill with
  // each bucket's start as its write cursor (column by column, so every
  // bucket fills in edge order), then shift the advanced cursors back into
  // starts: no cursor array beside the offsets.
  first_.assign(carriers * columns_ + 1, 0);
  for (std::size_t k = 0; k < columns_; ++k) {
    const config::ParamColumn& col = columns[k];
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      const std::size_t c = subject(col.entity(i));
      if (kept(c)) ++first_[c * columns_ + k + 1];
    }
  }
  std::size_t total = 0;
  for (std::uint32_t& f : first_) {
    total += f;
    if (total > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument("PairLabelRows: more configured cells than 32-bit offsets code");
    }
    f = static_cast<std::uint32_t>(total);
  }
  cells_.resize(first_.back());
  for (std::size_t k = 0; k < columns_; ++k) {
    const config::ParamColumn& col = columns[k];
    const std::vector<ml::ClassLabel> code = labels[k]->dense_codes();
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      const std::size_t e = col.entity(i);
      const std::size_t c = subject(e);
      if (!kept(c)) continue;
      const auto v = static_cast<std::size_t>(col.value_at(i));
      if (v >= code.size() || code[v] < 0) {
        throw std::logic_error("PairLabelRows: a configured value is missing from its dictionary");
      }
      cells_[first_[c * columns_ + k]++] = {
          static_cast<std::uint16_t>(e - topology.edge_offsets[c]),
          static_cast<LabelCell>(code[v])};
    }
  }
  std::copy_backward(first_.begin(), first_.end() - 1, first_.end());
  first_[0] = 0;
}

ml::CategoricalDataset to_categorical_dataset(
    const ParamView& view, const netsim::AttributeSchema& schema,
    const std::vector<std::vector<netsim::AttrCode>>& attr_codes) {
  ml::CategoricalDataset data;
  const std::size_t num_attrs = schema.attribute_count();
  const std::size_t total_cols = view.pairwise ? 2 * num_attrs : num_attrs;
  data.columns.resize(total_cols);
  data.cardinality.resize(total_cols);
  data.column_names.resize(total_cols);
  for (std::size_t a = 0; a < num_attrs; ++a) {
    data.cardinality[a] = schema.cardinality(a);
    data.column_names[a] = schema.name(a);
    data.columns[a].reserve(view.rows());
    if (view.pairwise) {
      data.cardinality[num_attrs + a] = schema.cardinality(a);
      data.column_names[num_attrs + a] = "nbr_" + schema.name(a);
      data.columns[num_attrs + a].reserve(view.rows());
    }
  }
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const auto c = static_cast<std::size_t>(view.carrier[r]);
    for (std::size_t a = 0; a < num_attrs; ++a) {
      data.columns[a].push_back(attr_codes[a][c]);
    }
    if (view.pairwise) {
      const auto nb = static_cast<std::size_t>(view.neighbor[r]);
      for (std::size_t a = 0; a < num_attrs; ++a) {
        data.columns[num_attrs + a].push_back(attr_codes[a][nb]);
      }
    }
  }
  data.labels = view.label;
  data.class_values = view.labels.values;
  return data;
}

}  // namespace auric::core
