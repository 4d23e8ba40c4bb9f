#include "harness/registry_delta.h"

namespace perfbench {

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot snap;
  snap.samples_ = auric::obs::MetricsRegistry::global().snapshot();
  return snap;
}

MetricTotals RegistrySnapshot::total(std::string_view name, std::string_view label_value) const {
  MetricTotals totals;
  for (const auric::obs::MetricSample& s : samples_) {
    if (s.name != name) continue;
    if (!label_value.empty()) {
      bool carries = false;
      for (const auto& [key, value] : s.labels) carries = carries || value == label_value;
      if (!carries) continue;
    }
    totals.value += s.value;
    totals.sum += s.sum;
    totals.count += s.count;
  }
  return totals;
}

MetricTotals delta(const RegistrySnapshot& before, const RegistrySnapshot& after,
                   std::string_view name, std::string_view label_value) {
  const MetricTotals a = before.total(name, label_value);
  const MetricTotals b = after.total(name, label_value);
  return {b.value - a.value, b.sum - a.sum, b.count - a.count};
}

}  // namespace perfbench
