// Chi-square test of independence between two categorical variables.
//
// This is the statistical core of Auric's dependency learning (§3.2, eq. 3-4
// of the paper): for each (carrier attribute, configuration parameter) pair,
// build the contingency table of observed counts, compute
//   chi2 = sum_ab (O_ab - E_ab)^2 / E_ab,  df = (R-1)(C-1),
// and reject independence when the p-value falls below the significance
// level (the paper uses p = 0.01).
//
// The p-value is the survival function of the chi-square distribution,
// computed exactly via the regularized incomplete gamma function
// (Q(df/2, x/2)) rather than a truncated critical-value lookup table.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace auric::ml {

/// Regularized lower incomplete gamma P(a, x), a > 0, x >= 0.
/// Series expansion for x < a+1, continued fraction otherwise (the standard
/// gammp/gammq construction); absolute accuracy ~1e-12.
double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
double regularized_gamma_q(double a, double x);

/// Survival function of the chi-square distribution with `df` degrees of
/// freedom: P(X > x) = Q(df/2, x/2). df must be >= 1.
double chi_square_sf(double x, int df);

/// An R x C table of observed counts, stored flat and row-major: cell
/// (r, c) is counts[r * cols + c]. Both dimensions are kept so a table with
/// no columns yet (a population without labels) still has its rows when
/// incremental relearn widens it.
struct ContingencyTable {
  std::vector<std::int64_t> counts;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::int64_t total = 0;

  /// Observations with row-variable code r and column code c.
  std::int64_t at(std::size_t r, std::size_t c) const { return counts[r * cols + c]; }
  std::int64_t& at(std::size_t r, std::size_t c) { return counts[r * cols + c]; }

  /// The batch tally: one pass over the samples into a fresh
  /// card_x-by-card_y table. Sample i has row code x[i] and column code
  /// y[i]. Throws std::invalid_argument when the spans differ in length and
  /// std::out_of_range for a code outside the table.
  static ContingencyTable build(std::span<const std::int32_t> x,
                                std::span<const std::int32_t> y, std::size_t card_x,
                                std::size_t card_y);

  /// The same tally with the row code looked up per sample: sample i has row
  /// code codes[subject[i]] and column code y[i]. The dependency scan passes
  /// one attribute's per-carrier codes and the population's carrier (or
  /// neighbor) column, so no per-attribute code vector is materialized.
  /// A subject outside `codes` also throws std::out_of_range.
  static ContingencyTable build(std::span<const std::int32_t> codes,
                                std::span<const std::int32_t> subject,
                                std::span<const std::int32_t> y, std::size_t card_x,
                                std::size_t card_y);

  /// An empty card_x-by-card_y table (all counts zero).
  static ContingencyTable zeros(std::size_t card_x, std::size_t card_y);

  /// A table holding `table_rows` as given (every row the same length);
  /// `total` is their sum. Throws std::invalid_argument on ragged rows.
  static ContingencyTable from_rows(const std::vector<std::vector<std::int64_t>>& table_rows);

  /// Applies a signed count delta at (x, y); `total` tracks the table sum.
  /// This is the incremental re-test primitive: a maintained table fed one
  /// observation at a time holds exactly the integer counts build() would
  /// produce from the full population, so chi_square_test over it is
  /// bit-identical to a from-scratch scan. Throws std::out_of_range outside
  /// the table and std::logic_error when a count would go negative.
  void apply(std::int32_t x, std::int32_t y, std::int64_t delta);

  bool operator==(const ContingencyTable&) const = default;
};

struct ChiSquareResult {
  double statistic = 0.0;
  int df = 0;
  double p_value = 1.0;

  /// True when independence is rejected at significance `alpha`.
  bool dependent(double alpha) const { return df > 0 && p_value < alpha; }
};

/// Chi-square test over a prebuilt table. Rows/columns with zero marginal
/// count are dropped before computing the statistic (they carry no
/// information and would make expected counts zero); if fewer than 2 rows or
/// 2 columns remain, the result has df = 0 and p = 1 (no evidence).
ChiSquareResult chi_square_test(const ContingencyTable& table);

/// Convenience: build the table from paired code vectors and test.
ChiSquareResult chi_square_independence(std::span<const std::int32_t> x,
                                        std::span<const std::int32_t> y, std::size_t card_x,
                                        std::size_t card_y);

}  // namespace auric::ml
