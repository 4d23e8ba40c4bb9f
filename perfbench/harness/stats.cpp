#include "harness/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, int basis_points) {
  const std::size_t bp = static_cast<std::size_t>(basis_points);
  return std::max<std::size_t>(1, (bp * n + 9999) / 10000);
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double quantile_bp(std::vector<double> samples, int basis_points) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  return samples[nearest_rank(samples.size(), basis_points) - 1];
}

std::size_t samples_beyond(std::size_t n, int basis_points) {
  return n == 0 ? 0 : n - nearest_rank(n, basis_points);
}

Tail supported_tail(const std::vector<double>& samples, std::size_t min_beyond) {
  Tail tail;
  tail.samples = samples.size();
  if (samples.empty()) return tail;
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  for (int bp : {9999, 9990, 9900, 9500, 9000, 5000}) {
    if (samples_beyond(sorted.size(), bp) >= min_beyond) {
      tail.percentile = bp / 100.0;
      tail.value = sorted[nearest_rank(sorted.size(), bp) - 1];
      tail.supported = true;
      return tail;
    }
  }
  tail.value = sorted.back();
  return tail;
}

}  // namespace perfbench
