#include "harness/report.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace perfbench {

void WorkloadResult::fail_check(const std::string& why) {
  say("CHECK FAILED: %s", why.c_str());
  correct = false;
}

void say(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void print_ledger(const std::string& title, double total,
                  const std::vector<std::pair<std::string, double>>& parts,
                  const std::string& unit) {
  double sum = 0.0;
  say("ledger %s = %.4f %s", title.c_str(), total, unit.c_str());
  for (const auto& [name, value] : parts) {
    sum += value;
    say("  %-34s %12.4f %s  (%5.1f%%)", name.c_str(), value, unit.c_str(),
        total != 0.0 ? 100.0 * value / total : 0.0);
  }
  const double residual = total - sum;
  say("  %-34s %12.4f %s", "sum of layers", sum, unit.c_str());
  say("  %-34s %12.4f %s  (%5.1f%%)", "residual", residual, unit.c_str(),
      total != 0.0 ? 100.0 * residual / total : 0.0);
}

std::string finish(WorkloadResult& result) {
  std::string metrics;
  for (const Metric& m : result.metrics) {
    say("metric %-32s %.6g %s", m.name.c_str(), m.value, m.unit.c_str());
    double value = m.value;
    if (!std::isfinite(value)) {
      result.fail_check("metric " + m.name + " is not a finite number");
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const auto& [name, hex] : result.digests) say("digest %s %s", name.c_str(), hex.c_str());
  if (!result.correct) result.failed = result.attempted;
  return std::string("{\"correct\": ") + (result.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(result.attempted) +
         ", \"failed\": " + std::to_string(result.failed) + ", \"metrics\": {" + metrics + "}}";
}

void print_world_stamp(const World& world, const RunConfig& config) {
  // One parseable line: run.py folds it into the run stamp.
  say("world: {\"carriers\": %zu, \"x2_edges\": %zu, \"parameters\": %zu, \"markets\": %d, "
      "\"scale\": %d, \"world_seed\": %llu, \"workload\": \"%s\", \"seed\": %llu, "
      "\"trace\": %d}",
      world.topology.carrier_count(), world.topology.edge_count() / 2, world.catalog.size(),
      config.world.markets, config.world.scale,
      static_cast<unsigned long long>(config.world.seed), config.workload.c_str(),
      static_cast<unsigned long long>(config.seed), config.trace ? 1 : 0);
}

}  // namespace perfbench
