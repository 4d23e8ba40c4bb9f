#include "ml/dataset.h"

#include <algorithm>
#include <stdexcept>

namespace auric::ml {

std::vector<std::int32_t> CategoricalDataset::row_codes(std::size_t row) const {
  std::vector<std::int32_t> codes(columns.size());
  for (std::size_t a = 0; a < columns.size(); ++a) codes[a] = columns[a][row];
  return codes;
}

void CategoricalDataset::check() const {
  if (columns.size() != cardinality.size() || columns.size() != column_names.size()) {
    throw std::logic_error("CategoricalDataset: column metadata size mismatch");
  }
  for (std::size_t a = 0; a < columns.size(); ++a) {
    if (columns[a].size() != labels.size()) {
      throw std::logic_error("CategoricalDataset: column row count mismatch");
    }
    for (std::int32_t code : columns[a]) {
      if (code < 0 || static_cast<std::size_t>(code) >= cardinality[a]) {
        throw std::logic_error("CategoricalDataset: attribute code out of range");
      }
    }
  }
  for (ClassLabel y : labels) {
    if (y < 0 || static_cast<std::size_t>(y) >= class_values.size()) {
      throw std::logic_error("CategoricalDataset: label out of range");
    }
  }
}

LabelDictionary LabelDictionary::build(std::span<const config::ValueIndex> labels) {
  LabelDictionary dict;
  if (labels.empty()) return dict;
  const auto [lo, hi] = std::minmax_element(labels.begin(), labels.end());
  if (*lo < 0) throw std::invalid_argument("LabelDictionary: negative value");
  // A presence pass over [lo, hi]: values are domain indices, so the range
  // is at most one domain wide, and no per-row copy is sorted.
  std::vector<char> present(static_cast<std::size_t>(*hi - *lo) + 1, 0);
  for (config::ValueIndex v : labels) present[static_cast<std::size_t>(v - *lo)] = 1;
  dict.values.reserve(static_cast<std::size_t>(std::count(present.begin(), present.end(), 1)));
  for (std::size_t i = 0; i < present.size(); ++i) {
    if (present[i] != 0) dict.values.push_back(*lo + static_cast<config::ValueIndex>(i));
  }
  return dict;
}

std::vector<ClassLabel> LabelDictionary::dense_codes() const {
  std::vector<ClassLabel> codes(values.empty() ? 0 : static_cast<std::size_t>(values.back()) + 1,
                                -1);
  for (std::size_t c = 0; c < values.size(); ++c) {
    codes[static_cast<std::size_t>(values[c])] = static_cast<ClassLabel>(c);
  }
  return codes;
}

ClassLabel LabelDictionary::code_of(config::ValueIndex value) const {
  const auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it == values.end() || *it != value) return -1;
  return static_cast<ClassLabel>(it - values.begin());
}

OneHotEncoder::OneHotEncoder(const CategoricalDataset& data) {
  offsets_.reserve(data.cardinality.size());
  for (std::size_t card : data.cardinality) {
    offsets_.push_back(width_);
    width_ += card;
  }
}

linalg::Matrix OneHotEncoder::encode(const CategoricalDataset& data,
                                     std::span<const std::size_t> indices) const {
  linalg::Matrix out(indices.size(), width_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const std::size_t row = indices[i];
    for (std::size_t a = 0; a < data.columns.size(); ++a) {
      out.at(i, offsets_[a] + static_cast<std::size_t>(data.columns[a][row])) = 1.0;
    }
  }
  return out;
}

std::vector<double> OneHotEncoder::encode_row(std::span<const std::int32_t> codes) const {
  std::vector<double> out(width_, 0.0);
  for (std::size_t a = 0; a < codes.size(); ++a) {
    if (codes[a] >= 0) out[offsets_[a] + static_cast<std::size_t>(codes[a])] = 1.0;
  }
  return out;
}

}  // namespace auric::ml
