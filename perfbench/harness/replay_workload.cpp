#include "harness/replay_workload.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "harness/digest.h"
#include "harness/stats.h"

namespace perfbench {

namespace fs = std::filesystem;
using auric::smartlaunch::ReplayOptions;
using auric::smartlaunch::ReplayReport;

namespace {

std::string summary_text(const ReplayReport& report) {
  std::string text;
  char line[256];
  for (const auto& w : report.weeks) {
    std::snprintf(line, sizeof(line), "%d,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%a\n", w.week, w.launches,
                  w.change_recommended, w.implemented, w.fallouts, w.rolled_back, w.quarantined,
                  w.parameters_changed, w.mean_launched_kpi);
    text += line;
  }
  const auto& t = report.totals;
  const auto& r = report.robust;
  std::snprintf(line, sizeof(line),
                "totals,%zu,%zu,%zu,%zu,%zu,%zu,%a,%a,%d,%zu,%zu,%zu,%zu,%d\n", t.launches,
                t.change_recommended, t.implemented, t.fallout_unlocked, t.fallout_timeout,
                t.parameters_changed, report.initial_network_kpi, report.final_network_kpi,
                report.engine_relearns, r.recovered, r.retries, r.rolled_back, r.quarantined,
                r.breaker_trips);
  return text + line;
}

}  // namespace

ReplayOptions replay_options(std::uint64_t seed, const std::string& state_dir,
                             auric::core::RelearnMode mode) {
  ReplayOptions options;
  options.days = kReplayDays;
  options.launches_per_day = kLaunchesPerDay;
  options.relearn_every_days = 7;
  options.robust = true;
  options.rollback.enabled = true;
  options.relearn_mode = mode;
  options.full_rebuild_every = 4;
  options.relearn_threads = 1;
  options.shards = 1;
  options.model_watch = true;
  options.state_dir = state_dir;
  options.checkpoint.journal = true;
  options.checkpoint.fsync = false;
  options.seed = seed;
  return options;
}

std::string state_dir_for(const std::string& scratch, const std::string& tag) {
  return (fs::path(scratch) / ("replay-" + std::to_string(::getpid()) + "-" + tag)).string();
}

ReplayWindow run_replay_window(const World& world, const ReplayOptions& options,
                               bool keep_state) {
  if (!options.state_dir.empty()) {
    fs::remove_all(options.state_dir);
    fs::create_directories(options.state_dir);
  }
  ReplayWindow window;
  {
    auric::smartlaunch::OperationReplay replay(world.topology, world.schema, world.catalog,
                                               *world.ground_truth, world.assignment, options);
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_s();
    window.report = replay.run();
    window.cpu_s = process_cpu_s() - cpu_start;
    window.wall_s = seconds_since(start);
    if (keep_state) window.end_state = replay.network_state();
  }
  if (!options.state_dir.empty()) fs::remove_all(options.state_dir);
  window.summary = summary_text(window.report);
  return window;
}

std::size_t launches_per_window(const World& world) {
  return std::min<std::size_t>(static_cast<std::size_t>(kReplayDays * kLaunchesPerDay),
                               world.topology.carrier_count());
}

void check_replay(const ReplayWindow& window, const World& world, WorkloadResult& result) {
  const ReplayReport& report = window.report;
  std::size_t weekly = 0;
  for (const auto& w : report.weeks) weekly += w.launches;
  const std::size_t expected = launches_per_window(world);
  if (report.totals.launches != expected || weekly != expected || report.engine_relearns != 4 ||
      report.totals.implemented > report.totals.change_recommended || report.drained) {
    result.fail_check("replay report breaks its invariants (launch count, relearn cadence)");
  }
}

void add_window_digests(const World& world, const RunConfig& config, const std::string& summary,
                        WorkloadResult& result) {
  Digest digest;
  digest.add(summary);
  result.add_digest(seeded_name("window", config.seed), digest.hex());
  if (config.seed == kAnchorSeed) return;
  const ReplayWindow anchor = run_replay_window(
      world, replay_options(kAnchorSeed, state_dir_for(config.scratch_dir, "anchor"),
                            auric::core::RelearnMode::kIncremental));
  check_replay(anchor, world, result);
  Digest anchor_digest;
  anchor_digest.add(anchor.summary);
  result.add_digest(seeded_name("window", kAnchorSeed), anchor_digest.hex());
}

WorkloadResult run_replay(const RunConfig& config) {
  WorkloadResult result;
  std::vector<double> setups;
  std::unique_ptr<World> world;
  // A world build alone takes ~0.2 s, so one host hiccup would move a median
  // of three: take three times as many.
  for (int rep = 0; rep < 3 * std::max(1, config.setup_reps); ++rep) {
    world.reset();
    const Clock::time_point start = Clock::now();
    world = build_world(config.world);
    setups.push_back(seconds_since(start));
  }
  print_world_stamp(*world, config);
  say("setup: median %.3f s over %zu set-ups (world; the replay learns its engine inside run())",
      median(setups), setups.size());

  const ReplayOptions options =
      replay_options(config.seed, state_dir_for(config.scratch_dir, "window"),
                     auric::core::RelearnMode::kIncremental);
  std::vector<double> window_ms;
  std::vector<double> cpu_ms;
  std::string first;
  bool identical = true;
  const Clock::time_point measure_start = Clock::now();
  while (window_ms.size() < 2 || seconds_since(measure_start) < config.seconds) {
    const ReplayWindow window = run_replay_window(*world, options);
    window_ms.push_back(window.wall_s * 1e3);
    cpu_ms.push_back(window.cpu_s * 1e3);
    say("window %zu: wall %.4f s, CPU %.4f s", window_ms.size(), window.wall_s, window.cpu_s);
    result.attempted += window.report.totals.launches;
    check_replay(window, *world, result);
    if (first.empty()) {
      first = window.summary;
    } else {
      identical = identical && window.summary == first;
    }
  }
  if (!identical) result.fail_check("repeated replay windows produced different summaries");

  // Reference: full relearns and no checkpoints must give the same window
  // (the incremental-relearn exactness and checkpoint transparency
  // contracts). Untimed.
  const ReplayWindow reference = run_replay_window(
      *world, replay_options(config.seed, "", auric::core::RelearnMode::kFull));
  if (reference.summary != first) {
    result.fail_check("replay with checkpoints + incremental relearn differs from the reference");
  }
  add_window_digests(*world, config, first, result);

  const double p50 = median(window_ms);
  const double launches = static_cast<double>(launches_per_window(*world));
  const double fastest_cpu_ms = *std::min_element(cpu_ms.begin(), cpu_ms.end());
  say("replay.window_s %.4f s, CPU %.4f s (medians) / %.4f s fastest (n=%zu windows)", p50 / 1e3,
      median(cpu_ms) / 1e3, fastest_cpu_ms / 1e3, window_ms.size());
  say("replay: %.0f launches per window, %.1f launches/s", launches, launches / (p50 / 1e3));

  result.add("setup_s", median(setups), "s");
  result.add("rss_peak_mb", peak_rss_mb(), "MB");
  // The least-disturbed window, as on `audit`: this memory-bound loop's CPU
  // time swings with the host's memory pressure from window to window.
  result.add("cpu_ms_per_op", fastest_cpu_ms, "ms");
  return result;
}

}  // namespace perfbench
