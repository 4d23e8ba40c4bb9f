// Order statistics for the benchmark's reported timings.
//
// Timings are reported as a median plus the highest percentile the sample
// supports: the highest candidate percentile that still leaves at least ten
// samples beyond it, stated together with the sample count.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); NaN when empty.
double median(std::vector<double> samples);

/// Nearest-rank quantile for `basis_points` in (0, 10000]: the value at
/// 1-based rank ceil(bp * n / 10000) of the sorted sample; NaN when empty.
double quantile_bp(std::vector<double> samples, int basis_points);

/// Samples strictly beyond the nearest rank of `basis_points` in a sample
/// of `n`.
std::size_t samples_beyond(std::size_t n, int basis_points);

/// The tail a sample supports. When no candidate percentile leaves
/// `min_beyond` samples beyond it, `supported` is false and the tail is the
/// sample maximum (percentile 100).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t samples = 0;
  bool supported = false;
};

/// Highest of p99.99, p99.9, p99, p95, p90 and p50 with at least
/// `min_beyond` samples beyond its rank.
Tail supported_tail(const std::vector<double>& samples, std::size_t min_beyond = 10);

}  // namespace perfbench
