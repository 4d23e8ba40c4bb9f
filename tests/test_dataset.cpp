#include "ml/dataset.h"

#include <gtest/gtest.h>

#include "learner_test_util.h"

namespace auric::ml {
namespace {

TEST(LabelDictionary, BuildsSortedUniqueValues) {
  const std::vector<config::ValueIndex> labels{7, 3, 7, 3, 12};
  const LabelDictionary dict = LabelDictionary::build(labels);
  EXPECT_EQ(dict.values, (std::vector<config::ValueIndex>{3, 7, 12}));
  EXPECT_EQ(dict.code_of(3), 0);
  EXPECT_EQ(dict.code_of(7), 1);
  EXPECT_EQ(dict.code_of(12), 2);
  EXPECT_EQ(dict.code_of(99), -1);
}

TEST(LabelDictionary, DenseCodesInvertTheDictionary) {
  const std::vector<config::ValueIndex> labels{40, 3, 40, 17};
  const LabelDictionary dict = LabelDictionary::build(labels);
  EXPECT_EQ(dict.values, (std::vector<config::ValueIndex>{3, 17, 40}));
  const std::vector<ClassLabel> codes = dict.dense_codes();
  ASSERT_EQ(codes.size(), 41u);
  for (config::ValueIndex v = 0; v <= 40; ++v) {
    EXPECT_EQ(codes[static_cast<std::size_t>(v)], dict.code_of(v)) << v;
  }
  EXPECT_TRUE(LabelDictionary::build({}).dense_codes().empty());
  const std::vector<config::ValueIndex> unset{2, config::kUnset};
  EXPECT_THROW(LabelDictionary::build(unset), std::invalid_argument);
}

TEST(CategoricalDataset, CheckDetectsBadCodes) {
  CategoricalDataset data = test::rule_dataset(10, 0.0, 1);
  EXPECT_NO_THROW(data.check());
  data.columns[0][0] = 99;
  EXPECT_THROW(data.check(), std::logic_error);
}

TEST(CategoricalDataset, CheckDetectsBadLabels) {
  CategoricalDataset data = test::rule_dataset(10, 0.0, 1);
  data.labels[0] = static_cast<ClassLabel>(data.num_classes());
  EXPECT_THROW(data.check(), std::logic_error);
}

TEST(CategoricalDataset, RowCodesGatherAcrossColumns) {
  const CategoricalDataset data = test::rule_dataset(5, 0.0, 2);
  const auto codes = data.row_codes(3);
  ASSERT_EQ(codes.size(), 3u);
  for (std::size_t a = 0; a < 3; ++a) EXPECT_EQ(codes[a], data.columns[a][3]);
}

class OneHotPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OneHotPropertyTest, EachRowSumsToAttributeCount) {
  // §4.2 of the paper: "The sum of the one-hot numeric array for a
  // particular carrier should be equal to 1" — per attribute; across all
  // attribute blocks the row sums to the attribute count.
  const CategoricalDataset data = test::rule_dataset(64, 0.3, GetParam());
  const OneHotEncoder encoder(data);
  EXPECT_EQ(encoder.width(), 4u + 3u + 5u);
  const auto rows = test::all_rows(data);
  const linalg::Matrix x = encoder.encode(data, rows);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    double sum = 0.0;
    for (double v : x.row(r)) {
      EXPECT_TRUE(v == 0.0 || v == 1.0);
      sum += v;
    }
    EXPECT_DOUBLE_EQ(sum, 3.0);
  }
}

TEST_P(OneHotPropertyTest, EncodeRowMatchesMatrixRow) {
  const CategoricalDataset data = test::rule_dataset(16, 0.0, GetParam());
  const OneHotEncoder encoder(data);
  const auto rows = test::all_rows(data);
  const linalg::Matrix x = encoder.encode(data, rows);
  for (std::size_t r = 0; r < data.rows(); ++r) {
    const auto single = encoder.encode_row(data.row_codes(r));
    for (std::size_t c = 0; c < encoder.width(); ++c) EXPECT_EQ(single[c], x.at(r, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OneHotPropertyTest, ::testing::Values(1u, 5u, 9u));

TEST(OneHotEncoder, NegativeCodeEncodesAsAllZeros) {
  const CategoricalDataset data = test::rule_dataset(4, 0.0, 1);
  const OneHotEncoder encoder(data);
  const std::vector<std::int32_t> codes{-1, 0, 0};
  const auto row = encoder.encode_row(codes);
  double block_sum = 0.0;
  for (std::size_t i = 0; i < 4; ++i) block_sum += row[i];  // attr 0 block
  EXPECT_DOUBLE_EQ(block_sum, 0.0);
}

}  // namespace
}  // namespace auric::ml
