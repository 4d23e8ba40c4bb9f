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

namespace {
[[noreturn]] void throw_code_out_of_range(const char* what) { throw std::out_of_range(what); }

/// The one tally loop behind both build() overloads: `row_code(i)` is
/// sample i's row code. Range checks stay per sample, but on plain integers
/// into one flat array, so the loop carries no call or nested indirection.
template <class RowCode>
ContingencyTable tally(std::size_t n, RowCode row_code, std::span<const std::int32_t> y,
                       std::size_t card_x, std::size_t card_y) {
  ContingencyTable table = ContingencyTable::zeros(card_x, card_y);
  std::int64_t* const cells = table.counts.data();
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t r = row_code(i);
    const std::int32_t c = y[i];
    if (r < 0 || static_cast<std::size_t>(r) >= card_x || c < 0 ||
        static_cast<std::size_t>(c) >= card_y) {
      throw_code_out_of_range("ContingencyTable: code out of range");
    }
    ++cells[static_cast<std::size_t>(r) * card_y + static_cast<std::size_t>(c)];
  }
  table.total = static_cast<std::int64_t>(n);
  return table;
}
}  // namespace

ContingencyTable ContingencyTable::build(std::span<const std::int32_t> x,
                                         std::span<const std::int32_t> y, std::size_t card_x,
                                         std::size_t card_y) {
  if (x.size() != y.size()) throw std::invalid_argument("ContingencyTable: size mismatch");
  return tally(x.size(), [x](std::size_t i) { return x[i]; }, y, card_x, card_y);
}

ContingencyTable ContingencyTable::build(std::span<const std::int32_t> codes,
                                         std::span<const std::int32_t> subject,
                                         std::span<const std::int32_t> y, std::size_t card_x,
                                         std::size_t card_y) {
  if (subject.size() != y.size()) throw std::invalid_argument("ContingencyTable: size mismatch");
  const auto row_code = [codes, subject](std::size_t i) {
    const std::int32_t s = subject[i];
    if (s < 0 || static_cast<std::size_t>(s) >= codes.size()) {
      throw_code_out_of_range("ContingencyTable: subject out of range");
    }
    return codes[static_cast<std::size_t>(s)];
  };
  return tally(subject.size(), row_code, y, card_x, card_y);
}

ContingencyTable ContingencyTable::zeros(std::size_t card_x, std::size_t card_y) {
  ContingencyTable table;
  table.counts.assign(card_x * card_y, 0);
  table.rows = card_x;
  table.cols = card_y;
  return table;
}

ContingencyTable ContingencyTable::from_rows(
    const std::vector<std::vector<std::int64_t>>& table_rows) {
  ContingencyTable table = zeros(table_rows.size(), table_rows.empty() ? 0 : table_rows[0].size());
  for (std::size_t r = 0; r < table.rows; ++r) {
    if (table_rows[r].size() != table.cols) {
      throw std::invalid_argument("ContingencyTable::from_rows: ragged rows");
    }
    for (std::size_t c = 0; c < table.cols; ++c) {
      table.at(r, c) = table_rows[r][c];
      table.total += table_rows[r][c];
    }
  }
  return table;
}

void ContingencyTable::apply(std::int32_t x, std::int32_t y, std::int64_t delta) {
  if (x < 0 || static_cast<std::size_t>(x) >= rows || y < 0 ||
      static_cast<std::size_t>(y) >= cols) {
    throw std::out_of_range("ContingencyTable::apply: code out of range");
  }
  std::int64_t& cell = at(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
  cell += delta;
  total += delta;
  if (cell < 0 || total < 0) {
    throw std::logic_error("ContingencyTable::apply: count went negative");
  }
}

ChiSquareResult chi_square_test(const ContingencyTable& table) {
  // Marginals, dropping empty rows/columns.
  const std::size_t raw_rows = table.rows;
  const std::size_t raw_cols = table.cols;
  std::vector<std::int64_t> row_sum(raw_rows, 0);
  std::vector<std::int64_t> col_sum(raw_cols, 0);
  for (std::size_t r = 0; r < raw_rows; ++r) {
    for (std::size_t c = 0; c < raw_cols; ++c) {
      row_sum[r] += table.at(r, c);
      col_sum[c] += table.at(r, c);
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
      const double diff = static_cast<double>(table.at(r, c)) - expected;
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
