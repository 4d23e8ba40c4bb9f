// Before/after views of the process-wide metrics registry, so layer costs
// can be read from the counters and histograms the program already exports
// without touching the program.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace perfbench {

/// Totals of one metric name: counter/gauge values and histogram sums and
/// counts, summed over the label sets selected.
struct MetricTotals {
  double value = 0.0;
  double sum = 0.0;
  std::uint64_t count = 0;
};

class RegistrySnapshot {
 public:
  static RegistrySnapshot take();

  /// Totals over every label set of `name`; when `label_value` is non-empty,
  /// only label sets carrying that value under some key.
  MetricTotals total(std::string_view name, std::string_view label_value = {}) const;

 private:
  std::vector<auric::obs::MetricSample> samples_;
};

/// after - before for one metric name (see RegistrySnapshot::total).
MetricTotals delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                   std::string_view name, std::string_view label_value = {});

}  // namespace perfbench
