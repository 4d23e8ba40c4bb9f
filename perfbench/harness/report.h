// Run configuration, results, and the text + JSON the benchmark prints.
//
// Human-readable lines (world stamp, ladder, ledger, metrics with units and
// sample counts) go to stdout as the run proceeds; the LAST stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness/world.h"

namespace perfbench {

/// The default seed (manifest.json). Runs whose own outputs depend on the
/// seed also reproduce this seed's, so every run checks at least one digest
/// against a recorded value, whatever seed it was given.
inline constexpr std::uint64_t kAnchorSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  WorldOptions world;
  /// Set-ups per untraced run; setup_s is their median.
  int setup_reps = 3;
  /// Where replay checkpoints go (created and removed by the run).
  std::string scratch_dir = ".bench_build/perfbench-state";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct WorkloadResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Named digests of the run's outputs. run.py checks each one that
  /// manifest.json records an expected value for.
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void add_digest(std::string name, std::string hex) {
    digests.emplace_back(std::move(name), std::move(hex));
  }
  /// Marks the run incorrect: finish() then counts every attempted
  /// operation as failed.
  void fail_check(const std::string& why);
};

/// The name of a digest of seed-dependent outputs, e.g. "report@seed=7".
inline std::string seeded_name(const std::string& what, std::uint64_t seed) {
  return what + "@seed=" + std::to_string(seed);
}

/// printf to stdout, flushed: one human-readable report line.
void say(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// One ledger row: an end-to-end figure, the layers attributed to it, their
/// sum and the unexplained residual with its share of the whole.
void print_ledger(const std::string& title, double total,
                  const std::vector<std::pair<std::string, double>>& parts,
                  const std::string& unit);

/// Prints every metric with its unit and every digest as
/// `digest <name> <hex>`, then returns the final JSON line.
/// Non-finite values cannot be stated; they mark the result incorrect.
std::string finish(WorkloadResult& result);

/// The world's size and the workload seed, printed once per run.
void print_world_stamp(const World& world, const RunConfig& config);

}  // namespace perfbench
