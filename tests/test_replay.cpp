#include "smartlaunch/replay.h"

#include <filesystem>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/model_watch.h"
#include "test_helpers.h"
#include "util/drain.h"
#include "util/parallel.h"

namespace auric::smartlaunch {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(13, 2, 12);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthModel ground_truth{topo, schema, catalog};
  config::ConfigAssignment assignment = ground_truth.assign();

  ReplayOptions options() const {
    ReplayOptions o;
    o.days = 14;
    o.launches_per_day = 5;
    o.relearn_every_days = 7;
    return o;
  }
};

TEST(OperationReplay, CountersAreConsistent) {
  Fixture f;
  OperationReplay replay(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                         f.options());
  const ReplayReport report = replay.run();
  EXPECT_EQ(report.totals.launches, 70u);
  EXPECT_EQ(report.weeks.size(), 2u);
  std::size_t weekly_launches = 0;
  std::size_t weekly_flagged = 0;
  for (const WeeklySummary& week : report.weeks) {
    weekly_launches += week.launches;
    weekly_flagged += week.change_recommended;
    EXPECT_GE(week.mean_launched_kpi, 0.0);
    EXPECT_LE(week.mean_launched_kpi, 1.0);
  }
  EXPECT_EQ(weekly_launches, report.totals.launches);
  EXPECT_EQ(weekly_flagged, report.totals.change_recommended);
  EXPECT_EQ(report.totals.implemented + report.totals.fallout_unlocked +
                report.totals.fallout_timeout,
            report.totals.change_recommended);
  EXPECT_EQ(report.engine_relearns, 2);  // day 0 and day 7
}

TEST(OperationReplay, LaunchedCarriersLandNearIntent) {
  Fixture f;
  OperationReplay replay(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                         f.options());
  const ReplayReport report = replay.run();
  // Launch configs are vendor values (mostly intent) plus Auric pushes; the
  // launched cohort must sit well above the pre-existing noise floor.
  for (const WeeklySummary& week : report.weeks) {
    EXPECT_GT(week.mean_launched_kpi, 0.9);
  }
  EXPECT_GE(report.final_network_kpi + 1e-9, report.initial_network_kpi * 0.98);
}

TEST(OperationReplay, StateEvolvesOnlyOnLaunchedCarriers) {
  Fixture f;
  ReplayOptions options = f.options();
  options.days = 1;
  options.launches_per_day = 3;  // exactly three carriers touched
  OperationReplay replay(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  replay.run();
  const config::ConfigAssignment& evolved = replay.network_state();
  // Count carriers whose singular configuration changed.
  std::set<netsim::CarrierId> touched;
  for (std::size_t si = 0; si < evolved.singular.size(); ++si) {
    for (std::size_t c = 0; c < evolved.singular[si].entities(); ++c) {
      if (evolved.singular[si].value[c] != f.assignment.singular[si].value[c]) {
        touched.insert(static_cast<netsim::CarrierId>(c));
      }
    }
  }
  EXPECT_LE(touched.size(), 3u);
}

void expect_reports_identical(const ReplayReport& a, const ReplayReport& b) {
  EXPECT_EQ(a.totals.launches, b.totals.launches);
  EXPECT_EQ(a.totals.change_recommended, b.totals.change_recommended);
  EXPECT_EQ(a.totals.implemented, b.totals.implemented);
  EXPECT_EQ(a.totals.fallout_unlocked, b.totals.fallout_unlocked);
  EXPECT_EQ(a.totals.fallout_timeout, b.totals.fallout_timeout);
  EXPECT_EQ(a.totals.parameters_changed, b.totals.parameters_changed);
  EXPECT_EQ(a.robust.recovered, b.robust.recovered);
  EXPECT_EQ(a.robust.chunked, b.robust.chunked);
  EXPECT_EQ(a.robust.queued_degraded, b.robust.queued_degraded);
  EXPECT_EQ(a.robust.drained, b.robust.drained);
  EXPECT_EQ(a.robust.still_queued, b.robust.still_queued);
  EXPECT_EQ(a.robust.aborted_unlocked, b.robust.aborted_unlocked);
  EXPECT_EQ(a.robust.fallout_terminal, b.robust.fallout_terminal);
  EXPECT_EQ(a.robust.retries, b.robust.retries);
  EXPECT_EQ(a.robust.breaker_trips, b.robust.breaker_trips);
  EXPECT_EQ(a.engine_relearns, b.engine_relearns);
  // Bit-identical, not approximately equal: the checkpoint stores doubles
  // as hexfloats precisely so a resumed run reproduces these exactly.
  EXPECT_EQ(a.initial_network_kpi, b.initial_network_kpi);
  EXPECT_EQ(a.final_network_kpi, b.final_network_kpi);
  ASSERT_EQ(a.weeks.size(), b.weeks.size());
  for (std::size_t w = 0; w < a.weeks.size(); ++w) {
    EXPECT_EQ(a.weeks[w].week, b.weeks[w].week) << w;
    EXPECT_EQ(a.weeks[w].launches, b.weeks[w].launches) << w;
    EXPECT_EQ(a.weeks[w].change_recommended, b.weeks[w].change_recommended) << w;
    EXPECT_EQ(a.weeks[w].implemented, b.weeks[w].implemented) << w;
    EXPECT_EQ(a.weeks[w].fallouts, b.weeks[w].fallouts) << w;
    EXPECT_EQ(a.weeks[w].parameters_changed, b.weeks[w].parameters_changed) << w;
    EXPECT_EQ(a.weeks[w].mean_launched_kpi, b.weeks[w].mean_launched_kpi) << w;
  }
}

TEST(OperationReplay, KilledAndResumedRunMatchesUninterruptedBitForBit) {
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.ems.flaky_timeout_prob = 0.15;
  options.ems.faults.burst_every = 30;
  options.ems.faults.burst_length = 3;
  options.ems.faults.burst_timeout_prob = 1.0;

  // Baseline: the full window in one process, no persistence.
  OperationReplay uninterrupted(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                                options);
  const ReplayReport baseline = uninterrupted.run();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_resume").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;

  // "Kill" the replay mid-week, mid-day (launch 33 of 70, not a boundary).
  options.stop_after_launches = 33;
  OperationReplay killed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport partial = killed.run();
  EXPECT_EQ(partial.totals.launches, 33u);

  // A fresh process resumes from the checkpoint and finishes the window.
  options.stop_after_launches = 0;
  options.resume = true;
  OperationReplay resumed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport report = resumed.run();

  expect_reports_identical(report, baseline);
  // The evolved network snapshots agree slot for slot.
  const config::ConfigAssignment& a = uninterrupted.network_state();
  const config::ConfigAssignment& b = resumed.network_state();
  for (std::size_t si = 0; si < a.singular.size(); ++si) {
    EXPECT_EQ(a.singular[si].value, b.singular[si].value) << si;
  }
  for (std::size_t pi = 0; pi < a.pairwise.size(); ++pi) {
    EXPECT_EQ(a.pairwise[pi].value, b.pairwise[pi].value) << pi;
  }
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, ResumeAtDayBoundaryReproducesRelearn) {
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;

  OperationReplay uninterrupted(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                                options);
  const ReplayReport baseline = uninterrupted.run();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_resume_day").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;
  // Stop exactly at the end of day 7's predecessor: launch 35 = 7 full days,
  // so the resume must re-run the day-7 engine re-learn deterministically.
  options.stop_after_launches = 35;
  OperationReplay killed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  killed.run();

  options.stop_after_launches = 0;
  options.resume = true;
  OperationReplay resumed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport report = resumed.run();
  expect_reports_identical(report, baseline);
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, CheckpointingDoesNotPerturbTheRun) {
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  OperationReplay plain(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport a = plain.run();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_persist").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;
  OperationReplay persisted(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                            options);
  const ReplayReport b = persisted.run();
  expect_reports_identical(a, b);
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, ModelWatchIsOutputNeutralSerialAndSharded) {
  // The watch only writes metrics: the report must be bit-identical with it
  // on or off, serial or sharded — the §17 determinism contract.
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.ems.flaky_timeout_prob = 0.0;

  OperationReplay watched(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  ASSERT_NE(watched.model_watch(), nullptr);
  const ReplayReport a = watched.run();

  options.model_watch = false;
  OperationReplay bare(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  EXPECT_EQ(bare.model_watch(), nullptr);
  expect_reports_identical(a, bare.run());

  options.model_watch = true;
  options.shards = 3;
  OperationReplay sharded(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  expect_reports_identical(a, sharded.run());

  // The watch saw the whole window: one drift day per replay day, and a
  // /modelz document carrying the per-parameter series.
  const core::ModelWatch& watch = *watched.model_watch();
  EXPECT_EQ(watch.days_rolled(), options.days);
  const std::string json = watch.modelz_json();
  EXPECT_NE(json.find("\"params\":["), std::string::npos);
  EXPECT_NE(json.find("\"gate_accepted\":"), std::string::npos);
}

TEST(OperationReplay, WeeklySummariesInvariantInShardCount) {
  // With fault injection off, the only randomness left is stateless
  // per-carrier hashing, so the weekly summaries (and the evolved network)
  // must not depend on how carriers are partitioned across EMS shards.
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.ems.flaky_timeout_prob = 0.0;

  OperationReplay serial(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport base = serial.run();

  options.shards = 3;
  OperationReplay parallel(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                           options);
  const ReplayReport sharded = parallel.run();

  expect_reports_identical(base, sharded);
  const config::ConfigAssignment& a = serial.network_state();
  const config::ConfigAssignment& b = parallel.network_state();
  for (std::size_t si = 0; si < a.singular.size(); ++si) {
    EXPECT_EQ(a.singular[si].value, b.singular[si].value) << si;
  }
  for (std::size_t pi = 0; pi < a.pairwise.size(); ++pi) {
    EXPECT_EQ(a.pairwise[pi].value, b.pairwise[pi].value) << pi;
  }
}

TEST(OperationReplay, ShardedRunIsDeterministic) {
  // Fault streams are shard-local, so a fault-enabled sharded run is not
  // comparable across shard counts — but for a fixed N it must reproduce
  // exactly, regardless of how the worker pool schedules the shards.
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.shards = 4;
  options.ems.flaky_timeout_prob = 0.15;
  options.ems.faults.burst_every = 30;
  options.ems.faults.burst_length = 3;
  options.ems.faults.burst_timeout_prob = 1.0;
  OperationReplay a(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  OperationReplay b(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  expect_reports_identical(a.run(), b.run());
}

TEST(OperationReplay, ShardedRunMatchesUnderForcedThreadPool) {
  // The merge is ordered on the main thread, so the report must not depend
  // on whether shard tasks ran inline (1-core hosts) or on real pool
  // workers. Forcing the pool to four threads exercises the genuinely
  // concurrent path on any host (and under TSan in CI).
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.shards = 4;
  options.ems.flaky_timeout_prob = 0.15;

  OperationReplay inline_run(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                             options);
  const ReplayReport base = inline_run.run();

  util::set_worker_count(4);
  util::TaskPool::shared().reserve(4);
  OperationReplay threaded_run(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                               options);
  const ReplayReport threaded = threaded_run.run();
  util::set_worker_count(0);

  expect_reports_identical(base, threaded);
}

TEST(OperationReplay, ShardedKilledAndResumedRunMatchesBitForBit) {
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.shards = 4;
  options.ems.flaky_timeout_prob = 0.15;
  options.ems.faults.burst_every = 30;
  options.ems.faults.burst_length = 3;
  options.ems.faults.burst_timeout_prob = 1.0;

  OperationReplay uninterrupted(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                                options);
  const ReplayReport baseline = uninterrupted.run();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_shard_resume").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;
  // Sharded checkpoints are day-granular: asking to stop after launch 33
  // rounds up to the end of that day (35 = 7 full days of 5).
  options.stop_after_launches = 33;
  OperationReplay killed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport partial = killed.run();
  EXPECT_EQ(partial.totals.launches, 35u);

  options.stop_after_launches = 0;
  options.resume = true;
  OperationReplay resumed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  expect_reports_identical(resumed.run(), baseline);

  const config::ConfigAssignment& a = uninterrupted.network_state();
  const config::ConfigAssignment& b = resumed.network_state();
  for (std::size_t si = 0; si < a.singular.size(); ++si) {
    EXPECT_EQ(a.singular[si].value, b.singular[si].value) << si;
  }
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, DrainedAndResumedRunMatchesUninterruptedBitForBit) {
  // SIGTERM path minus the signal: util::request_drain() sets the same flag
  // the handler does. The replay must finish the in-progress day, seal its
  // checkpoint, report drained, and --resume must converge bit-identically
  // with an uninterrupted window.
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.ems.flaky_timeout_prob = 0.15;

  OperationReplay uninterrupted(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment,
                                options);
  const ReplayReport baseline = uninterrupted.run();
  EXPECT_FALSE(baseline.drained);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_drain").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;

  // The flag is already up when the window starts: day 0 still runs to
  // completion (drain is day-granular), then the run stops.
  util::request_drain();
  OperationReplay killed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport partial = killed.run();
  util::reset_drain_flag();
  EXPECT_TRUE(partial.drained);
  EXPECT_EQ(partial.totals.launches, 5u);  // exactly the first day's batch

  options.resume = true;
  OperationReplay resumed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport report = resumed.run();
  EXPECT_FALSE(report.drained);
  expect_reports_identical(report, baseline);
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, ShardedDrainStopsAtTheSameDayBoundary) {
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.shards = 3;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_drain_shard").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;

  util::request_drain();
  OperationReplay killed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport partial = killed.run();
  util::reset_drain_flag();
  EXPECT_TRUE(partial.drained);
  EXPECT_EQ(partial.totals.launches, 5u);

  options.resume = true;
  OperationReplay resumed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  const ReplayReport full = resumed.run();
  EXPECT_EQ(full.totals.launches, 70u);
  EXPECT_FALSE(full.drained);
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, ResumeRejectsShardCountMismatch) {
  // Per-shard fault-stream positions cannot be re-partitioned, so resuming
  // a checkpoint under a different shard count must fail loudly instead of
  // silently diverging.
  Fixture f;
  ReplayOptions options = f.options();
  options.robust = true;
  options.shards = 4;
  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_replay_shard_mismatch").string();
  std::filesystem::remove_all(dir);
  options.state_dir = dir;
  options.stop_after_launches = 10;
  OperationReplay killed(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  killed.run();

  options.stop_after_launches = 0;
  options.resume = true;
  options.shards = 1;
  OperationReplay wrong(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, options);
  EXPECT_THROW(wrong.run(), std::invalid_argument);
  std::filesystem::remove_all(dir);
}

TEST(OperationReplay, DeterministicInSeed) {
  Fixture f;
  OperationReplay a(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, f.options());
  OperationReplay b(f.topo, f.schema, f.catalog, f.ground_truth, f.assignment, f.options());
  const ReplayReport ra = a.run();
  const ReplayReport rb = b.run();
  EXPECT_EQ(ra.totals.change_recommended, rb.totals.change_recommended);
  EXPECT_EQ(ra.totals.parameters_changed, rb.totals.parameters_changed);
  EXPECT_DOUBLE_EQ(ra.final_network_kpi, rb.final_network_kpi);
}

}  // namespace
}  // namespace auric::smartlaunch
