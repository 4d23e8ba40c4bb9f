// The traced run: per-layer numbers for every module, taken from outside
// the program by timing calls into public functions and by reading
// before/after deltas of the counters and histograms it already exports.
//
// Every traced run reports every layer metric, whatever the workload: the
// workload's own phase supplies the layers it exercises, and a compact,
// fixed probe of each remaining layer supplies the rest (a short serve phase,
// direct engine and plan calls, one replay window). The traced run then
// prints the workload's ledger: its end-to-end figure, the layers attributed
// to it, and the unexplained residual.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "harness/report.h"
#include "harness/serve_workload.h"
#include "harness/world.h"

namespace perfbench {

/// Direct calls into core on a sample of carriers (no watch attached unless
/// stated).
struct CoreLayers {
  double recommend_us = 0.0;     ///< p50 of recommend_singular per carrier
  double key_build_ns = 0.0;     ///< p50 per VotingModel::key_for, all backoff levels
  double group_lookup_ns = 0.0;  ///< p50 per VotingModel::vote, all backoff levels
  double local_scan_us = 0.0;    ///< p50 per BackoffVoting::local over the 1-hop X2 set
  double watch_record_us = 0.0;  ///< p50 of (watched - unwatched) recommend_singular
  double local_frac = 0.0;
  double global_frac = 0.0;
  double default_frac = 0.0;
  double groups = 0.0;  ///< peer groups over every parameter and backoff level
};

CoreLayers probe_core(const World& world, auric::core::AuricEngine& engine, std::uint64_t seed,
                      std::size_t carriers = 1200);

/// p50 microseconds of LaunchController::plan_changes_detailed.
double probe_plan_us(const World& world, const auric::core::AuricEngine& engine,
                     std::uint64_t seed, std::size_t carriers = 400);

/// Paired timings on the same targets: the socket round trip, the
/// in-process ServeDaemon::handle(), and the engine or plan call behind it.
struct ServePaths {
  double handle_p50_us = 0.0;
  double handle_p99_us = 0.0;
  double direct_p50_us = 0.0;
  double dispatch_us = 0.0;       ///< p50 of handle - direct
  double http_overhead_us = 0.0;  ///< p50 of socket - handle
  std::size_t samples = 0;
};

ServePaths probe_serve_paths(const ServeStack& stack, const std::vector<ServeTarget>& targets,
                             int rounds = 3);

/// The traced run of `config.workload`.
WorkloadResult run_traced(const RunConfig& config);

}  // namespace perfbench
