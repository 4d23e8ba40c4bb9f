// The `replay` workload: OperationReplay::run() over a 28-day window with
// robust pushes (default fault rate, KPI gate), incremental relearns every
// 7 days with a full rebuild every 4th relearn (3 incremental + the
// window-opening full build), journal checkpoints into a fresh directory
// with fsync off, ModelWatch on, one shard, one relearn thread.
#pragma once

#include <string>

#include "config/assignment.h"
#include "harness/report.h"
#include "harness/world.h"
#include "smartlaunch/replay.h"

namespace perfbench {

inline constexpr int kReplayDays = 28;
inline constexpr int kLaunchesPerDay = 21;

/// The workload's replay settings for `seed`; `state_dir` empty turns
/// checkpoints off.
auric::smartlaunch::ReplayOptions replay_options(std::uint64_t seed, const std::string& state_dir,
                                                 auric::core::RelearnMode mode);

struct ReplayWindow {
  auric::smartlaunch::ReplayReport report;
  double wall_s = 0.0;       ///< run() only
  double cpu_s = 0.0;        ///< process CPU during run()
  std::string summary;       ///< weekly rows (hexfloat KPI) + totals: the digest input
  auric::config::ConfigAssignment end_state;
};

/// One window from the world's initial assignment; `state_dir` is emptied
/// before and removed after. `keep_state` copies out the evolved snapshot.
ReplayWindow run_replay_window(const World& world,
                               const auric::smartlaunch::ReplayOptions& options,
                               bool keep_state = false);

/// Checks the invariants of one window's report: every scheduled launch
/// happened (each carrier launches at most once), and the relearn cadence
/// ran 1 full build + 3 incremental relearns.
void check_replay(const ReplayWindow& window, const World& world, WorkloadResult& result);

/// Launches one window makes on `world`.
std::size_t launches_per_window(const World& world);

/// A checkpoint directory under `scratch` unique to this process.
std::string state_dir_for(const std::string& scratch, const std::string& tag);

/// Adds the digest of the run's window `summary`, named by the workload
/// seed. When that seed is not the anchor seed, also runs the anchor seed's
/// window (untimed, same settings) and adds its digest.
void add_window_digests(const World& world, const RunConfig& config, const std::string& summary,
                        WorkloadResult& result);

/// The untraced `replay` run.
WorkloadResult run_replay(const RunConfig& config);

}  // namespace perfbench
