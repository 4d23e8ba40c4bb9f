#include "ml/chi_square.h"

#include <cmath>
#include <stdexcept>

namespace auric::ml {

namespace {
constexpr int kMaxIterations = 500;
constexpr double kEpsilon = 1e-14;
constexpr double kTiny = 1e-300;

/// ln Gamma(a). std::lgamma writes glibc's global signgam, a data race when
/// dependency re-tests run on several pool threads; the reentrant lgamma_r
/// returns the same value and keeps the sign local.
double log_gamma(double a) {
  int sign = 0;
  return ::lgamma_r(a, &sign);
}

/// Series representation of P(a, x) (converges fast for x < a + 1).
double gamma_p_series(double a, double x) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  for (int i = 0; i < kMaxIterations; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * kEpsilon) break;
  }
  return sum * std::exp(-x + a * std::log(x) - log_gamma(a));
}

/// Continued-fraction representation of Q(a, x) (for x >= a + 1), using the
/// modified Lentz algorithm.
double gamma_q_cf(double a, double x) {
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i <= kMaxIterations; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < kEpsilon) break;
  }
  return h * std::exp(-x + a * std::log(x) - log_gamma(a));
}
}  // namespace

double regularized_gamma_p(double a, double x) {
  if (!(a > 0.0) || x < 0.0) throw std::invalid_argument("regularized_gamma_p: bad arguments");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x);
  return 1.0 - gamma_q_cf(a, x);
}

double regularized_gamma_q(double a, double x) {
  if (!(a > 0.0) || x < 0.0) throw std::invalid_argument("regularized_gamma_q: bad arguments");
  if (x == 0.0) return 1.0;
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x);
  return gamma_q_cf(a, x);
}

double chi_square_sf(double x, int df) {
  if (df < 1) throw std::invalid_argument("chi_square_sf: df must be >= 1");
  if (x <= 0.0) return 1.0;
  return regularized_gamma_q(static_cast<double>(df) / 2.0, x / 2.0);
}

ContingencyTable ContingencyTable::build(std::span<const std::int32_t> x,
                                         std::span<const std::int32_t> y, std::size_t card_x,
                                         std::size_t card_y) {
  if (x.size() != y.size()) throw std::invalid_argument("ContingencyTable: size mismatch");
  ContingencyTable table;
  table.counts.assign(card_x, std::vector<std::int64_t>(card_y, 0));
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] < 0 || static_cast<std::size_t>(x[i]) >= card_x || y[i] < 0 ||
        static_cast<std::size_t>(y[i]) >= card_y) {
      throw std::out_of_range("ContingencyTable: code out of range");
    }
    ++table.counts[static_cast<std::size_t>(x[i])][static_cast<std::size_t>(y[i])];
    ++table.total;
  }
  return table;
}

ContingencyTable ContingencyTable::zeros(std::size_t card_x, std::size_t card_y) {
  ContingencyTable table;
  table.counts.assign(card_x, std::vector<std::int64_t>(card_y, 0));
  return table;
}

void ContingencyTable::apply(std::int32_t x, std::int32_t y, std::int64_t delta) {
  if (x < 0 || static_cast<std::size_t>(x) >= counts.size() || y < 0 ||
      (counts.empty() || static_cast<std::size_t>(y) >= counts[0].size())) {
    throw std::out_of_range("ContingencyTable::apply: code out of range");
  }
  std::int64_t& cell = counts[static_cast<std::size_t>(x)][static_cast<std::size_t>(y)];
  cell += delta;
  total += delta;
  if (cell < 0 || total < 0) {
    throw std::logic_error("ContingencyTable::apply: count went negative");
  }
}

ChiSquareResult chi_square_test(const ContingencyTable& table) {
  // Marginals, dropping empty rows/columns.
  const std::size_t raw_rows = table.counts.size();
  const std::size_t raw_cols = raw_rows == 0 ? 0 : table.counts[0].size();
  std::vector<std::int64_t> row_sum(raw_rows, 0);
  std::vector<std::int64_t> col_sum(raw_cols, 0);
  for (std::size_t r = 0; r < raw_rows; ++r) {
    for (std::size_t c = 0; c < raw_cols; ++c) {
      row_sum[r] += table.counts[r][c];
      col_sum[c] += table.counts[r][c];
    }
  }
  int rows = 0;
  int cols = 0;
  for (std::int64_t s : row_sum) rows += s > 0 ? 1 : 0;
  for (std::int64_t s : col_sum) cols += s > 0 ? 1 : 0;

  ChiSquareResult result;
  if (rows < 2 || cols < 2 || table.total == 0) return result;  // df = 0, p = 1

  const double total = static_cast<double>(table.total);
  double stat = 0.0;
  for (std::size_t r = 0; r < raw_rows; ++r) {
    if (row_sum[r] == 0) continue;
    for (std::size_t c = 0; c < raw_cols; ++c) {
      if (col_sum[c] == 0) continue;
      const double expected =
          static_cast<double>(row_sum[r]) * static_cast<double>(col_sum[c]) / total;
      const double diff = static_cast<double>(table.counts[r][c]) - expected;
      stat += diff * diff / expected;
    }
  }
  result.statistic = stat;
  result.df = (rows - 1) * (cols - 1);
  result.p_value = chi_square_sf(stat, result.df);
  return result;
}

ChiSquareResult chi_square_independence(std::span<const std::int32_t> x,
                                        std::span<const std::int32_t> y, std::size_t card_x,
                                        std::size_t card_y) {
  return chi_square_test(ContingencyTable::build(x, y, card_x, card_y));
}

}  // namespace auric::ml
