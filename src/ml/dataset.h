// Categorical learning dataset shared by every learner.
//
// §3.1 of the paper: the predictor matrix X holds A categorical carrier
// attributes for N carriers, the predictee Y^(i) holds one configuration
// parameter's values; both are one-hot encoded before being handed to the
// scikit-learn learners. We keep the pre-one-hot representation (integer
// codes per categorical column) as the canonical form because
//  - the chi-square dependency scan works on contingency tables of codes,
//  - tree learners split on "attribute == value" predicates, which are
//    exactly the one-hot binary features but orders of magnitude cheaper,
//  - Euclidean distance on the one-hot expansion equals 2x Hamming distance
//    on codes, so k-NN needs no expansion either.
// The MLP expands to a real one-hot Matrix internally via OneHotEncoder.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "config/catalog.h"
#include "linalg/matrix.h"

namespace auric::ml {

/// Dictionary-encoded class label (position in CategoricalDataset::class_values).
using ClassLabel = std::int32_t;

struct CategoricalDataset {
  /// columns[a][row] = attribute code in [0, cardinality[a]).
  std::vector<std::vector<std::int32_t>> columns;
  std::vector<std::size_t> cardinality;
  std::vector<std::string> column_names;

  /// labels[row] = class code in [0, class_values.size()).
  std::vector<ClassLabel> labels;
  /// Class dictionary: class code -> configuration ValueIndex.
  std::vector<config::ValueIndex> class_values;

  std::size_t rows() const { return labels.size(); }
  std::size_t num_attributes() const { return columns.size(); }
  std::size_t num_classes() const { return class_values.size(); }

  /// Attribute codes of one row, gathered across columns.
  std::vector<std::int32_t> row_codes(std::size_t row) const;

  /// Validates internal consistency (sizes, code ranges); throws on error.
  void check() const;
};

/// Builds the dictionary for a label vector: maps each distinct ValueIndex to
/// a dense class code. Rows with config::kUnset must be filtered out by the
/// caller before this point (a negative value throws std::invalid_argument).
struct LabelDictionary {
  std::vector<config::ValueIndex> values;  // class code -> value, ascending

  static LabelDictionary build(std::span<const config::ValueIndex> labels);
  ClassLabel code_of(config::ValueIndex value) const;  // -1 if absent
  /// value -> class code for every value in [0, values.back()], -1 where
  /// absent: codes a whole population with one indexed load per row.
  std::vector<ClassLabel> dense_codes() const;
  std::size_t size() const { return values.size(); }
};

/// One-hot expansion of the categorical columns.
class OneHotEncoder {
 public:
  explicit OneHotEncoder(const CategoricalDataset& data);

  std::size_t width() const { return width_; }

  /// Encodes the selected rows into an (indices.size() x width) matrix.
  linalg::Matrix encode(const CategoricalDataset& data,
                        std::span<const std::size_t> indices) const;

  /// Encodes a single row of attribute codes.
  std::vector<double> encode_row(std::span<const std::int32_t> codes) const;

 private:
  std::vector<std::size_t> offsets_;  // column -> first one-hot position
  std::size_t width_ = 0;
};

}  // namespace auric::ml
