#include "ml/chi_square.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace auric::ml {
namespace {

TEST(RegularizedGamma, KnownValues) {
  // P(1, x) = 1 - e^-x.
  EXPECT_NEAR(regularized_gamma_p(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(regularized_gamma_p(1.0, 3.0), 1.0 - std::exp(-3.0), 1e-12);
  // P + Q = 1 across both computation branches.
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 30.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0, 1e-12);
    }
  }
  EXPECT_DOUBLE_EQ(regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(2.0, 0.0), 1.0);
  EXPECT_THROW(regularized_gamma_p(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(regularized_gamma_q(1.0, -1.0), std::invalid_argument);
}

TEST(ChiSquareSf, MatchesStandardCriticalValues) {
  // Classic table entries: chi2_{0.05, df=1} = 3.841, chi2_{0.01, df=1} =
  // 6.635, chi2_{0.01, df=2} = 9.210, chi2_{0.05, df=10} = 18.307.
  EXPECT_NEAR(chi_square_sf(3.841, 1), 0.05, 2e-4);
  EXPECT_NEAR(chi_square_sf(6.635, 1), 0.01, 1e-4);
  EXPECT_NEAR(chi_square_sf(9.210, 2), 0.01, 1e-4);
  EXPECT_NEAR(chi_square_sf(18.307, 10), 0.05, 2e-4);
  EXPECT_DOUBLE_EQ(chi_square_sf(0.0, 3), 1.0);
  EXPECT_THROW(chi_square_sf(1.0, 0), std::invalid_argument);
}

TEST(ContingencyTable, CountsPairs) {
  const std::vector<std::int32_t> x{0, 0, 1, 1, 1};
  const std::vector<std::int32_t> y{0, 1, 0, 1, 1};
  const ContingencyTable table = ContingencyTable::build(x, y, 2, 2);
  EXPECT_EQ(table.total, 5);
  EXPECT_EQ(table.rows, 2u);
  EXPECT_EQ(table.cols, 2u);
  EXPECT_EQ(table.at(0, 0), 1);
  EXPECT_EQ(table.at(0, 1), 1);
  EXPECT_EQ(table.at(1, 0), 1);
  EXPECT_EQ(table.at(1, 1), 2);
}

TEST(ContingencyTable, IndexedBuildLooksUpRowCodesPerSubject) {
  // Sample i's row code is codes[subject[i]]: subjects 2, 0, 2 -> rows 1, 0, 1.
  const std::vector<std::int32_t> codes{0, 2, 1};
  const std::vector<std::int32_t> subject{2, 0, 2};
  const std::vector<std::int32_t> y{1, 0, 1};
  const ContingencyTable table = ContingencyTable::build(codes, subject, y, 3, 2);
  EXPECT_EQ(table.total, 3);
  EXPECT_EQ(table.at(1, 1), 2);
  EXPECT_EQ(table.at(0, 0), 1);
  EXPECT_EQ(table.at(2, 0) + table.at(2, 1), 0);
}

TEST(ContingencyTable, BuildEqualsRepeatedApply) {
  // The batch kernel and the incremental primitive must hold the same
  // integer counts, so a maintained table re-tests bit-identically.
  util::Rng rng(5);
  constexpr std::size_t kCardX = 7;
  constexpr std::size_t kCardY = 5;
  std::vector<std::int32_t> codes(40);
  for (std::int32_t& c : codes) c = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(kCardX) - 1));
  std::vector<std::int32_t> subject(3000);
  std::vector<std::int32_t> x(subject.size());
  std::vector<std::int32_t> y(subject.size());
  ContingencyTable applied = ContingencyTable::zeros(kCardX, kCardY);
  for (std::size_t i = 0; i < subject.size(); ++i) {
    subject[i] = static_cast<std::int32_t>(rng.uniform_int(0, 39));
    x[i] = codes[static_cast<std::size_t>(subject[i])];
    y[i] = static_cast<std::int32_t>(rng.uniform_int(0, static_cast<std::int64_t>(kCardY) - 1));
    applied.apply(x[i], y[i], 1);
  }
  const ContingencyTable built = ContingencyTable::build(x, y, kCardX, kCardY);
  const ContingencyTable indexed = ContingencyTable::build(codes, subject, y, kCardX, kCardY);
  EXPECT_EQ(built, applied);
  EXPECT_EQ(indexed, applied);
  EXPECT_EQ(built.total, static_cast<std::int64_t>(subject.size()));
  const ChiSquareResult a = chi_square_test(built);
  const ChiSquareResult b = chi_square_test(applied);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.statistic), std::bit_cast<std::uint64_t>(b.statistic));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.p_value), std::bit_cast<std::uint64_t>(b.p_value));
}

TEST(ContingencyTable, OutOfRangeCodesThrowInBuildAndApply) {
  const std::vector<std::int32_t> ok{0, 1};
  for (const std::vector<std::int32_t>& bad :
       {std::vector<std::int32_t>{0, -1}, std::vector<std::int32_t>{0, 2}}) {
    EXPECT_THROW(ContingencyTable::build(bad, ok, 2, 2), std::out_of_range);  // row code
    EXPECT_THROW(ContingencyTable::build(ok, bad, 2, 2), std::out_of_range);  // column code
    EXPECT_THROW(ContingencyTable::build(ok, ok, bad, 2, 2), std::out_of_range);
    EXPECT_THROW(ContingencyTable::build(ok, bad, ok, 2, 2), std::out_of_range);  // subject
    ContingencyTable table = ContingencyTable::zeros(2, 2);
    EXPECT_THROW(table.apply(bad[1], 0, 1), std::out_of_range);
    EXPECT_THROW(table.apply(0, bad[1], 1), std::out_of_range);
    EXPECT_EQ(table, ContingencyTable::zeros(2, 2));
  }
  const std::vector<std::int32_t> bad_codes{0, 5};
  EXPECT_THROW(ContingencyTable::build(bad_codes, ok, ok, 2, 2), std::out_of_range);
  const std::vector<std::int32_t> short_y{0};
  EXPECT_THROW(ContingencyTable::build(ok, ok, short_y, 2, 2), std::invalid_argument);
}

TEST(ContingencyTable, FromRowsSumsTheTotal) {
  const ContingencyTable table = ContingencyTable::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(table.rows, 2u);
  EXPECT_EQ(table.cols, 3u);
  EXPECT_EQ(table.at(1, 2), 6);
  EXPECT_EQ(table.total, 21);
  EXPECT_THROW(ContingencyTable::from_rows({{1, 2}, {3}}), std::invalid_argument);
}

TEST(ContingencyTable, RejectsBadInput) {
  const std::vector<std::int32_t> x{0, 1};
  const std::vector<std::int32_t> y{0};
  EXPECT_THROW(ContingencyTable::build(x, y, 2, 2), std::invalid_argument);
  const std::vector<std::int32_t> oob{0, 5};
  const std::vector<std::int32_t> ok{0, 1};
  EXPECT_THROW(ContingencyTable::build(oob, ok, 2, 2), std::out_of_range);
}

TEST(ChiSquareTest, HandComputedStatistic) {
  // Table: [[10, 20], [20, 10]]; expected all 15; chi2 = 4*25/15 = 6.667.
  const ContingencyTable table = ContingencyTable::from_rows({{10, 20}, {20, 10}});
  EXPECT_EQ(table.total, 60);
  const ChiSquareResult result = chi_square_test(table);
  EXPECT_EQ(result.df, 1);
  EXPECT_NEAR(result.statistic, 100.0 / 15.0, 1e-12);
  EXPECT_TRUE(result.dependent(0.05));
  EXPECT_FALSE(result.dependent(0.001));
}

TEST(ChiSquareTest, EmptyRowsAndColumnsAreDropped) {
  const ContingencyTable table =
      ContingencyTable::from_rows({{10, 0, 20}, {0, 0, 0}, {20, 0, 10}});
  const ChiSquareResult result = chi_square_test(table);
  EXPECT_EQ(result.df, 1);  // effectively 2x2 after dropping empties
  EXPECT_NEAR(result.statistic, 100.0 / 15.0, 1e-12);
}

TEST(ChiSquareTest, DegenerateTableHasNoEvidence) {
  const ContingencyTable one_column = ContingencyTable::from_rows({{5}, {7}});
  const ChiSquareResult result = chi_square_test(one_column);
  EXPECT_EQ(result.df, 0);
  EXPECT_DOUBLE_EQ(result.p_value, 1.0);
  EXPECT_FALSE(result.dependent(0.05));
}

/// Every survival-function value of a grid that crosses both the series and
/// the continued-fraction branch, as raw bits.
std::vector<std::uint64_t> sf_grid_bits() {
  std::vector<std::uint64_t> bits;
  for (int df = 1; df <= 30; ++df) {
    for (int k = 1; k <= 80; ++k) {
      bits.push_back(std::bit_cast<std::uint64_t>(chi_square_sf(0.75 * k, df)));
    }
  }
  return bits;
}

TEST(ChiSquareSf, ConcurrentCallsMatchSerialBitForBit) {
  // Dependency re-tests run on several pool threads at once; the p-value
  // path must not share mutable state (glibc's lgamma writes signgam), and
  // each thread must see exactly the serial values.
  const std::vector<std::uint64_t> serial = sf_grid_bits();
  constexpr int kThreads = 4;
  std::vector<std::vector<std::uint64_t>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&results, t] { results[static_cast<std::size_t>(t)] = sf_grid_bits(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(results[static_cast<std::size_t>(t)], serial) << "thread " << t;
  }
}

class ChiSquareDetectionTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChiSquareDetectionTest, DetectsPlantedDependence) {
  util::Rng rng(11);
  const std::size_t n = GetParam();
  std::vector<std::int32_t> x(n);
  std::vector<std::int32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    // y strongly follows x with 10% noise.
    y[i] = rng.bernoulli(0.9) ? x[i] % 3 : static_cast<std::int32_t>(rng.uniform_int(0, 2));
  }
  const ChiSquareResult result = chi_square_independence(x, y, 4, 3);
  EXPECT_TRUE(result.dependent(0.01));
}

TEST_P(ChiSquareDetectionTest, AcceptsIndependence) {
  util::Rng rng(13);
  const std::size_t n = GetParam();
  std::vector<std::int32_t> x(n);
  std::vector<std::int32_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = static_cast<std::int32_t>(rng.uniform_int(0, 3));
    y[i] = static_cast<std::int32_t>(rng.uniform_int(0, 2));
  }
  const ChiSquareResult result = chi_square_independence(x, y, 4, 3);
  EXPECT_FALSE(result.dependent(0.01));
}

INSTANTIATE_TEST_SUITE_P(SampleSizes, ChiSquareDetectionTest,
                         ::testing::Values(200u, 1000u, 5000u));

}  // namespace
}  // namespace auric::ml
