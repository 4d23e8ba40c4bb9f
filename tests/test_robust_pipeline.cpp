#include "smartlaunch/robust_pipeline.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/rulebook.h"
#include "core/engine.h"
#include "smartlaunch/pipeline.h"
#include "test_helpers.h"

namespace auric::smartlaunch {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(11, 2, 16);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthModel ground_truth{topo, schema, catalog, make_gt()};
  config::ConfigAssignment assignment = ground_truth.assign();
  core::AuricEngine engine{topo, schema, catalog, assignment};
  config::Rulebook rulebook{ground_truth, catalog};

  static config::GroundTruthParams make_gt() {
    config::GroundTruthParams params;
    params.seed = 21;
    return params;
  }

  /// A vendor-fault profile that guarantees many planned changes.
  static VendorFaultOptions always_stale() {
    VendorFaultOptions faults;
    faults.stale_template_prob = 1.0;
    faults.stale_slot_frac = 1.0;
    faults.typo_prob = 0.0;
    return faults;
  }

  std::vector<netsim::CarrierId> cohort(std::size_t n) const {
    std::vector<netsim::CarrierId> carriers;
    for (std::size_t c = 0; c < n && c < topo.carrier_count(); ++c) {
      carriers.push_back(static_cast<netsim::CarrierId>(c));
    }
    return carriers;
  }
};

std::vector<config::MoSetting> fake_settings(std::size_t n) {
  std::vector<config::MoSetting> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back({"MO=" + std::to_string(i), 0, 1});
  return out;
}

TEST(RobustExecutor, ChunksOversizedChangeSets) {
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(1, reliable);  // structural limit: 32 settings per push
  RobustPushExecutor executor(ems);
  const auto result = executor.execute(0, fake_settings(100));
  EXPECT_EQ(result.outcome, RobustOutcome::kImplemented);
  EXPECT_EQ(result.applied, 100u);
  EXPECT_EQ(result.chunks, 4);    // ceil(100 / 32)
  EXPECT_EQ(result.attempts, 4);  // one clean push per chunk
  EXPECT_EQ(executor.journal_applied(0), 0u);  // journal cleared on success
}

TEST(RobustExecutor, RetriesTransientTimeoutsWithBackoff) {
  // Burst window: the first two executing pushes fault transiently, the
  // third succeeds. The executor must retry through the window and land
  // everything, resuming after the partially applied settings.
  EmsOptions options;
  options.flaky_timeout_prob = 0.0;
  options.faults.burst_every = 1000;
  options.faults.burst_length = 2;
  options.faults.burst_timeout_prob = 1.0;
  EmsSimulator ems(1, options);
  RobustPushExecutor::Options exec_options;
  exec_options.retry.max_attempts = 4;
  RobustPushExecutor executor(ems, exec_options);
  const auto result = executor.execute(0, fake_settings(20));
  EXPECT_EQ(result.outcome, RobustOutcome::kRecovered);
  EXPECT_EQ(result.applied, 20u);
  EXPECT_EQ(result.retries, 2);
  EXPECT_GT(result.backoff_ms, 0.0);
}

TEST(RobustExecutor, ExhaustedRetriesAreTerminalAndJournaled) {
  EmsOptions options;
  options.flaky_timeout_prob = 1.0;  // every push faults
  EmsSimulator ems(1, options);
  RobustPushExecutor::Options exec_options;
  exec_options.retry.max_attempts = 3;
  RobustPushExecutor executor(ems, exec_options);
  const auto result = executor.execute(0, fake_settings(20));
  EXPECT_EQ(result.outcome, RobustOutcome::kFalloutTerminal);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_LT(result.applied, 20u);
  // Partial progress is journaled for an idempotent later resume.
  EXPECT_EQ(executor.journal_applied(0), result.applied);
  EXPECT_EQ(executor.breaker().consecutive_failures(), 1);
}

TEST(RobustExecutor, ResumesFromJournalAfterTerminalFailure) {
  // Three-push burst window with a 2-attempt budget: the first execute()
  // exhausts retries mid-window and journals its partial progress; the
  // second execute() resumes past the window and completes as recovered.
  EmsOptions options;
  options.flaky_timeout_prob = 0.0;
  options.faults.burst_every = 1000;
  options.faults.burst_length = 3;
  options.faults.burst_timeout_prob = 1.0;
  EmsSimulator ems(1, options);
  RobustPushExecutor::Options exec_options;
  exec_options.retry.max_attempts = 2;
  RobustPushExecutor executor(ems, exec_options);

  const auto first = executor.execute(0, fake_settings(20));
  EXPECT_EQ(first.outcome, RobustOutcome::kFalloutTerminal);
  const std::size_t journaled = executor.journal_applied(0);
  EXPECT_EQ(journaled, first.applied);

  const auto second = executor.execute(0, fake_settings(20));
  EXPECT_EQ(second.outcome, RobustOutcome::kRecovered);
  EXPECT_EQ(second.applied, 20u);
  EXPECT_EQ(executor.journal_applied(0), 0u);
}

TEST(RobustExecutor, AbortsCleanlyWhenCarrierUnlockedOutOfBand) {
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(1, reliable);
  ems.unlock_out_of_band(0);
  RobustPushExecutor executor(ems);
  const auto result = executor.execute(0, fake_settings(10));
  EXPECT_EQ(result.outcome, RobustOutcome::kAbortedUnlocked);
  EXPECT_EQ(result.attempts, 0);  // no push against a live carrier
  EXPECT_EQ(result.applied, 0u);
  // A clean abort is not an EMS health signal.
  EXPECT_EQ(result.retries, 0);
  EXPECT_EQ(executor.breaker().consecutive_failures(), 0);
}

TEST(RobustExecutor, RecoversLockFlapsByRelocking) {
  EmsOptions options;
  options.flaky_timeout_prob = 0.0;
  options.faults.lock_flap_prob = 0.35;
  options.seed = 5;
  EmsSimulator ems(8, options);
  RobustPushExecutor::Options exec_options;
  exec_options.retry.max_attempts = 6;
  RobustPushExecutor executor(ems, exec_options);
  std::size_t recovered = 0;
  for (netsim::CarrierId c = 0; c < 8; ++c) {
    const auto result = executor.execute(c, fake_settings(16));
    ASSERT_TRUE(result.outcome == RobustOutcome::kImplemented ||
                result.outcome == RobustOutcome::kRecovered)
        << robust_outcome_name(result.outcome);
    EXPECT_EQ(result.applied, 16u);
    if (result.outcome == RobustOutcome::kRecovered) ++recovered;
  }
  EXPECT_GT(recovered, 0u);        // some flaps happened at prob 0.35
  EXPECT_GT(ems.lock_cycles(), 0u);  // and were recovered via re-lock
}

TEST(RobustPipeline, BeatsNaivePipelineUnderTransientFaults) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  const auto cohort = f.cohort(60);

  EmsOptions flaky;
  flaky.flaky_timeout_prob = 0.30;

  EmsSimulator naive_ems(f.topo.carrier_count(), flaky);
  PipelineOptions naive_options;
  naive_options.premature_unlock_prob = 0.0;
  SmartLaunchPipeline naive(controller, naive_ems, kpi, naive_options);
  const SmartLaunchReport naive_report = naive.run(cohort);

  EmsSimulator robust_ems(f.topo.carrier_count(), flaky);
  RobustPipelineOptions robust_options;
  robust_options.premature_unlock_prob = 0.0;
  RobustLaunchController robust(controller, robust_ems, kpi, robust_options);
  const RobustLaunchReport robust_report = robust.run(cohort);

  EXPECT_EQ(robust_report.change_recommended, naive_report.change_recommended);
  const std::size_t naive_fallouts =
      naive_report.fallout_unlocked + naive_report.fallout_timeout;
  EXPECT_GT(naive_fallouts, 0u);  // 30% flaky must hurt the naive path
  EXPECT_LT(robust_report.terminal_fallouts(), naive_fallouts);
  EXPECT_GT(robust_report.implemented, naive_report.implemented);
  EXPECT_GT(robust_report.recovered, 0u);
  EXPECT_EQ(robust_report.change_recommended,
            robust_report.implemented + robust_report.terminal_fallouts());
}

TEST(RobustPipeline, ChunkingEliminatesStructuralTimeouts) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  const auto cohort = f.cohort(30);

  // Tiny deadline: only ONE setting fits one push, so any multi-change
  // plan structurally times out on the naive path.
  EmsOptions tight;
  tight.flaky_timeout_prob = 0.0;
  tight.deadline_ms = 50.0;
  tight.command_ms = 50.0;
  tight.concurrency = 1;

  EmsSimulator naive_ems(f.topo.carrier_count(), tight);
  PipelineOptions naive_options;
  naive_options.premature_unlock_prob = 0.0;
  SmartLaunchPipeline naive(controller, naive_ems, kpi, naive_options);
  const SmartLaunchReport naive_report = naive.run(cohort);
  EXPECT_GT(naive_report.fallout_timeout, 0u);

  EmsSimulator robust_ems(f.topo.carrier_count(), tight);
  RobustPipelineOptions robust_options;
  robust_options.premature_unlock_prob = 0.0;
  RobustLaunchController robust(controller, robust_ems, kpi, robust_options);
  const RobustLaunchReport robust_report = robust.run(cohort);
  EXPECT_EQ(robust_report.fallout_terminal, 0u);
  EXPECT_GT(robust_report.chunked, 0u);
  EXPECT_EQ(robust_report.implemented, robust_report.change_recommended);
}

TEST(RobustPipeline, OutOfBandUnlockAbortsWithoutPushing) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(f.topo.carrier_count(), reliable);
  RobustPipelineOptions options;
  options.premature_unlock_prob = 1.0;  // every engineer jumps the gun
  RobustLaunchController robust(controller, ems, kpi, options);
  const RobustLaunchReport report = robust.run(f.cohort(12));
  EXPECT_EQ(report.aborted_unlocked, report.change_recommended);
  EXPECT_EQ(report.implemented, 0u);
  EXPECT_EQ(report.parameters_changed, 0u);
  for (const RobustLaunchRecord& record : report.records) {
    if (record.outcome == RobustOutcome::kAbortedUnlocked) {
      EXPECT_EQ(record.attempts, 0);  // aborted before touching the EMS
    }
  }
}

TEST(RobustPipeline, BreakerTripsToDegradedModeUnderPersistentFaults) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  EmsOptions sick;
  sick.flaky_timeout_prob = 0.0;
  sick.faults.persistent_fault_prob = 1.0;  // every carrier's EMS path is down
  EmsSimulator ems(f.topo.carrier_count(), sick);
  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  options.executor.breaker.failure_threshold = 3;
  options.executor.breaker.cooldown_ops = 4;
  RobustLaunchController robust(controller, ems, kpi, options);
  const RobustLaunchReport report = robust.run(f.cohort(40));
  EXPECT_GE(report.breaker_trips, 1);
  EXPECT_GT(report.queued_degraded, 0u);   // degraded mode engaged
  EXPECT_GT(report.still_queued, 0u);      // the EMS never recovered
  EXPECT_EQ(report.implemented, 0u);
  EXPECT_EQ(report.drained, 0u);
  EXPECT_EQ(report.change_recommended,
            report.implemented + report.terminal_fallouts());
}

TEST(RobustPipeline, QueueDrainsWhenBreakerRecovers) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);

  // A burst outage long enough to trip the breaker, then a healthy EMS:
  // with a 2-attempt budget, 3 launches fail terminally (2 pushes each),
  // the breaker opens, a few launches queue, the half-open probe succeeds,
  // and the queue drains.
  EmsOptions options;
  options.flaky_timeout_prob = 0.0;
  options.faults.burst_every = 100000;
  options.faults.burst_length = 6;
  options.faults.burst_timeout_prob = 1.0;
  EmsSimulator ems(f.topo.carrier_count(), options);
  RobustPipelineOptions robust_options;
  robust_options.premature_unlock_prob = 0.0;
  robust_options.executor.retry.max_attempts = 2;
  robust_options.executor.breaker.failure_threshold = 3;
  robust_options.executor.breaker.cooldown_ops = 2;
  RobustLaunchController robust(controller, ems, kpi, robust_options);
  const RobustLaunchReport report = robust.run(f.cohort(40));

  EXPECT_GE(report.breaker_trips, 1);
  EXPECT_GT(report.queued_degraded, 0u);
  EXPECT_EQ(report.still_queued, 0u);  // everything drained post-recovery
  EXPECT_EQ(report.drained, report.queued_degraded);
  EXPECT_GT(ems.lock_cycles(), 0u);  // drains re-lock on-air carriers
  EXPECT_EQ(report.change_recommended,
            report.implemented + report.terminal_fallouts());
}

TEST(RobustPipeline, DeterministicUnderFixedSeed) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  EmsOptions faulty;
  faulty.flaky_timeout_prob = 0.25;
  faulty.faults.lock_flap_prob = 0.05;
  faulty.faults.persistent_fault_prob = 0.05;
  const auto cohort = f.cohort(50);

  const auto run_once = [&] {
    EmsSimulator ems(f.topo.carrier_count(), faulty);
    RobustLaunchController robust(controller, ems, kpi, RobustPipelineOptions{});
    return robust.run(cohort);
  };
  const RobustLaunchReport a = run_once();
  const RobustLaunchReport b = run_once();
  EXPECT_EQ(a.implemented, b.implemented);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.chunked, b.chunked);
  EXPECT_EQ(a.queued_degraded, b.queued_degraded);
  EXPECT_EQ(a.drained, b.drained);
  EXPECT_EQ(a.aborted_unlocked, b.aborted_unlocked);
  EXPECT_EQ(a.fallout_terminal, b.fallout_terminal);
  EXPECT_EQ(a.parameters_changed, b.parameters_changed);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.breaker_trips, b.breaker_trips);
  EXPECT_DOUBLE_EQ(a.total_backoff_ms, b.total_backoff_ms);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].outcome, b.records[i].outcome) << i;
    EXPECT_EQ(a.records[i].changes_applied, b.records[i].changes_applied) << i;
  }
}

TEST(RobustOutcomeNames, Stable) {
  EXPECT_STREQ(robust_outcome_name(RobustOutcome::kRecovered), "recovered");
  EXPECT_STREQ(robust_outcome_name(RobustOutcome::kQueuedDegraded), "queued-degraded");
  EXPECT_STREQ(robust_outcome_name(RobustOutcome::kFalloutTerminal), "fallout-terminal");
  EXPECT_STREQ(robust_outcome_name(RobustOutcome::kRolledBack), "rolled-back");
}

/// A partially stale vendor profile: templates are always out of date but
/// corrupt only a fraction of the slots, so the vendor (pre-push) quality
/// stays well above the KPI floor and the gate has headroom to detect a
/// degradation.
VendorFaultOptions partially_stale() {
  VendorFaultOptions faults;
  faults.stale_template_prob = 1.0;
  faults.stale_slot_frac = 0.3;
  faults.typo_prob = 0.0;
  return faults;
}

/// A push policy that accepts thinly-voted recommendations: plans grow to
/// the multi-setting change sets (≈7–13 slots here) where a fault-aborted
/// partial apply leaves enough unapplied corrections to drag the KPI below
/// the gate's floors. The production default (min_votes 8) prunes plans to
/// 1–3 settings on this small fixture, too few for a partial apply to ever
/// out-penalize the deviations it fixes.
PushPolicy relaxed_policy() {
  PushPolicy policy;
  policy.min_votes = 2;
  return policy;
}

/// Deterministic correlated-outage EMS: pushes whose 0-based index i has
/// i % every < length time out transiently; every other push is clean.
/// Concurrency 1 gives per-setting waves, so a transient fault can abort
/// mid-plan and leave a KPI-degrading partial apply even on the small
/// change sets this fixture plans (at the default concurrency of 4 a
/// sub-wave plan aborts before anything lands).
EmsOptions burst_ems(int every, int length) {
  EmsOptions options;
  options.flaky_timeout_prob = 0.0;
  options.concurrency = 1;
  options.faults.burst_every = every;
  options.faults.burst_length = length;
  options.faults.burst_timeout_prob = 1.0;
  return options;
}

TEST(RollbackGate, SilentOnHealthyEms) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, partially_stale(),
                                    relaxed_policy());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  EmsOptions reliable;
  reliable.flaky_timeout_prob = 0.0;
  EmsSimulator ems(f.topo.carrier_count(), reliable);
  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  RobustLaunchController robust(controller, ems, kpi, options);
  const RobustLaunchReport report = robust.run(f.cohort(60));
  EXPECT_GT(report.implemented, 0u);
  // No faults -> every push lands completely -> no partial-apply degradation
  // -> the gate never fires.
  EXPECT_EQ(report.rollbacks, 0u);
  EXPECT_EQ(report.rolled_back, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_EQ(report.rollback_failed, 0u);
  EXPECT_TRUE(robust.quarantine().empty());
}

TEST(RollbackGate, RevertsKpiBreachingPartialApplies) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, partially_stale(),
                                    relaxed_policy());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  // Two-fault bursts against a 2-attempt budget: forward pushes regularly
  // exhaust their retries mid-plan, leaving KPI-degrading partial applies;
  // the clean third slot of each burst period lets rollbacks land.
  EmsSimulator ems(f.topo.carrier_count(), burst_ems(3, 2));
  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  options.executor.retry.max_attempts = 2;
  options.executor.breaker.failure_threshold = 1000;  // keep the breaker out of the way
  RobustLaunchController robust(controller, ems, kpi, options);
  const RobustLaunchReport report = robust.run(f.cohort(60));

  EXPECT_GT(report.rollbacks, 0u);    // breaches were detected and reverted
  EXPECT_GT(report.reattempted, 0u);  // and the launches were re-attempted
  EXPECT_EQ(report.change_recommended,
            report.implemented + report.terminal_fallouts());
  bool saw_rolled_back = false;
  for (const RobustLaunchRecord& record : report.records) {
    if (record.outcome != RobustOutcome::kRolledBack || record.quarantine_skipped) continue;
    saw_rolled_back = true;
    // A completed rollback leaves the carrier exactly on its vendor config.
    EXPECT_EQ(record.changes_applied, 0u);
    EXPECT_DOUBLE_EQ(record.post_quality, record.pre_quality);
    EXPECT_GT(record.rollbacks, 0);
    EXPECT_TRUE(record.quarantined);  // kRolledBack persists only via the cap
  }
  EXPECT_TRUE(saw_rolled_back);
}

TEST(RollbackGate, RollbackPushRecoversFromTransientFault) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, partially_stale(),
                                    relaxed_policy());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  // Three-fault bursts: a rollback issued right after a terminal forward
  // push (two faults) lands inside the burst window, faults transiently,
  // and must retry through it — the rollback path exercises the same
  // recovery machinery as the forward path.
  EmsSimulator ems(f.topo.carrier_count(), burst_ems(5, 3));
  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  options.executor.retry.max_attempts = 2;
  options.executor.breaker.failure_threshold = 1000;
  RobustLaunchController robust(controller, ems, kpi, options);
  const RobustLaunchReport report = robust.run(f.cohort(60));
  EXPECT_GT(report.rollbacks, 0u);
  EXPECT_GT(report.rollback_retries, 0u);  // a rollback push faulted and recovered
  EXPECT_EQ(report.change_recommended,
            report.implemented + report.terminal_fallouts());
}

TEST(RollbackGate, QuarantineSkipsRepeatOffender) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, partially_stale(),
                                    relaxed_policy());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  EmsSimulator ems(f.topo.carrier_count(), burst_ems(3, 2));
  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  options.executor.retry.max_attempts = 2;
  options.executor.breaker.failure_threshold = 1000;
  RobustLaunchController robust(controller, ems, kpi, options);
  const RobustLaunchReport report = robust.run(f.cohort(60));

  netsim::CarrierId offender = netsim::kInvalidCarrier;
  for (const RobustLaunchRecord& record : report.records) {
    if (record.quarantined) {
      offender = record.carrier;
      break;
    }
  }
  ASSERT_NE(offender, netsim::kInvalidCarrier);
  ASSERT_GE(robust.quarantine().at(offender), 2);

  // A manual relaunch of a quarantined carrier is refused up front: vendor
  // config only, no pushes, no EMS traffic.
  const RobustLaunchRecord again = robust.launch(offender);
  EXPECT_EQ(again.outcome, RobustOutcome::kRolledBack);
  EXPECT_TRUE(again.quarantine_skipped);
  EXPECT_EQ(again.attempts, 0);
  EXPECT_EQ(again.changes_applied, 0u);
}

TEST(RollbackGate, TerminalFalloutClearsJournal) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, Fixture::always_stale());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  EmsOptions sick;
  sick.flaky_timeout_prob = 1.0;  // every push faults transiently
  sick.concurrency = 1;           // per-setting waves: partials can land
  EmsSimulator ems(f.topo.carrier_count(), sick);
  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  options.executor.retry.max_attempts = 2;
  options.executor.breaker.failure_threshold = 1000;  // no deferrals, only terminals
  options.rollback.enabled = false;  // isolate the journal-clearing contract
  RobustLaunchController robust(controller, ems, kpi, options);
  // Find a carrier whose launch terminates with a journaled partial apply;
  // not every carrier plans changes, and some partials abort at zero.
  bool found = false;
  for (netsim::CarrierId c = 0; c < static_cast<netsim::CarrierId>(f.topo.carrier_count()) && !found;
       ++c) {
    const RobustLaunchRecord record = robust.launch(c);
    if (record.changes_planned == 0) continue;
    ASSERT_EQ(record.outcome, RobustOutcome::kFalloutTerminal) << c;
    if (record.changes_applied == 0) continue;
    found = true;
    // The partial apply was journaled by the executor, but a terminal launch
    // gives the entry up: a later manual relaunch must re-plan from scratch
    // instead of resuming a stale partial apply.
    EXPECT_EQ(robust.executor().journal_applied(c), 0u);
  }
  EXPECT_TRUE(found);
}

TEST(RollbackGate, PersistedQuarantineSurvivesRestart) {
  Fixture f;
  const LaunchController controller(f.engine, f.rulebook, f.assignment, partially_stale(),
                                    relaxed_policy());
  const KpiModel kpi(f.topo, f.catalog, f.assignment);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "auric_robust_resume").string();
  std::filesystem::remove_all(dir);

  RobustPipelineOptions options;
  options.premature_unlock_prob = 0.0;
  options.executor.retry.max_attempts = 2;
  options.executor.breaker.failure_threshold = 1000;
  options.state_dir = dir;

  netsim::CarrierId offender = netsim::kInvalidCarrier;
  {
    EmsSimulator ems(f.topo.carrier_count(), burst_ems(3, 2));
    RobustLaunchController first(controller, ems, kpi, options);
    const RobustLaunchReport report = first.run(f.cohort(60));
    for (const RobustLaunchRecord& record : report.records) {
      if (record.quarantined) {
        offender = record.carrier;
        break;
      }
    }
    ASSERT_NE(offender, netsim::kInvalidCarrier);
  }

  // A fresh process (new EMS, new executor) resuming from the checkpoint
  // must still refuse the quarantined carrier.
  EmsSimulator ems(f.topo.carrier_count(), burst_ems(3, 2));
  options.resume = true;
  RobustLaunchController second(controller, ems, kpi, options);
  const std::vector<netsim::CarrierId> relaunch = {offender};
  const RobustLaunchReport report = second.run(relaunch);
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_TRUE(report.records[0].quarantine_skipped);
  EXPECT_EQ(report.records[0].outcome, RobustOutcome::kRolledBack);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace auric::smartlaunch
