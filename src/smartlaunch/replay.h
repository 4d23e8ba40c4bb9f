// Two-month operation replay (§5 of the paper).
//
// The paper reports "two months of experience of running Auric for very
// large operational LTE networks". This module replays that window as a
// discrete-time simulation:
//   - every day a batch of new carriers launches through the SmartLaunch
//     pipeline (vendor integration -> Auric diff -> push -> unlock);
//   - the launch configuration (vendor values + successfully pushed Auric
//     corrections) REPLACES the carrier's configuration in the network
//     snapshot — the network state evolves as operations run;
//   - on a fixed cadence (weekly by default) the Auric engine re-learns
//     from the evolved snapshot, exactly as a production deployment would
//     refresh its models from the nightly inventory feed.
//
// The replay exposes the weekly operational counters (Table 5 sliced over
// time) and the mean post-launch KPI quality, which trends upward as the
// pushed corrections accumulate.
//
// Crash-safe resume: with ReplayOptions::state_dir set, the replay
// checkpoints its full dynamic state (EMS streams, apply journal, deferred
// queue, breaker, evolving-state delta, day/launch cursor and every report
// counter) through an io::LaunchStateStore after every launch, every
// drained carrier and every completed day. A replay killed mid-window and
// restarted with ReplayOptions::resume converges to final counters
// bit-identical with an uninterrupted run — all randomness is either
// stateless (per-carrier hashes) or carried in the persisted stream
// positions, and doubles are persisted as hexfloats.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "config/rulebook.h"
#include "core/engine.h"
#include "io/launch_state.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"
#include "smartlaunch/controller.h"
#include "smartlaunch/ems.h"
#include "smartlaunch/pipeline.h"
#include "smartlaunch/robust_pipeline.h"

namespace auric::core {
class ModelWatch;
}

namespace auric::smartlaunch {

struct ReplayOptions {
  int days = 60;                  ///< the paper's two-month window
  int launches_per_day = 21;      ///< ~1251 launches over 60 days
  int relearn_every_days = 7;     ///< engine refresh cadence
  VendorFaultOptions vendor_faults;
  PushPolicy push_policy;
  PipelineOptions pipeline;
  EmsOptions ems;
  /// When true, pushes go through the fault-tolerant path (chunking,
  /// retry/backoff, apply journal, circuit breaker with a deferred queue
  /// drained at end of day) instead of the naive one-shot push.
  bool robust = false;
  RobustPushExecutor::Options robust_executor;
  /// KPI gate applied to every robust push (replayed launches route through
  /// RobustLaunchController::push_gated_launch): a fault-damaged apply that
  /// breaches the quality floors is rolled back, re-attempted once, and the
  /// carrier quarantined on a second breach. Ignored in naive mode.
  RollbackOptions rollback;
  std::uint64_t seed = 2024;
  /// EMS shards: carriers are partitioned across this many independent
  /// EmsSimulators (keyed by market; see smartlaunch::ShardedEms), each with
  /// its own fault streams, circuit breaker, apply journal and deferred
  /// queue, and each day's launch stream executes shard-parallel on the
  /// process worker pool. 1 keeps the legacy single-EMS serial path,
  /// byte-identical to earlier releases. With fault injection disabled the
  /// weekly summaries are invariant in the shard count (all remaining
  /// randomness is stateless per-carrier hashing); fault streams are
  /// shard-local by design, so fault-enabled runs are deterministic for a
  /// given N but not comparable across different N.
  int shards = 1;
  /// When non-empty, checkpoint the replay state into this directory after
  /// every launch, drained carrier and completed day (see header comment).
  /// Sharded runs (shards > 1) checkpoint at day granularity instead: the
  /// parallel launch stream has no serializable mid-day cursor.
  std::string state_dir;
  /// Checkpoint durability knobs (fsync, compaction thresholds), passed to
  /// the io::LaunchStateStore.
  io::LaunchStateStore::Options checkpoint;
  /// Restart from the checkpoint in state_dir (requires the replay to be
  /// constructed with the same inputs and options as the killed run).
  bool resume = false;
  /// Simulated kill switch: checkpoint and stop once this many launches
  /// have executed in total, counting resumed progress (0 = full window).
  /// Sharded runs round the stop up to the end of the day that crosses the
  /// threshold (day granularity matches the sharded checkpoint cadence).
  int stop_after_launches = 0;
  /// Attach a core::ModelWatch to the engine: per-parameter recommendation
  /// telemetry, KPI-gate outcome joins and day-over-day drift gauges
  /// (DESIGN.md §17). Metrics only — weekly output stays byte-identical
  /// with the watch on or off. Watch state is in-memory (not checkpointed):
  /// a resumed run's drift gauges restart from its resume day.
  bool model_watch = true;
  /// How the relearn cadence refreshes the engine. kIncremental applies the
  /// days' slot deltas in place (AuricEngine::incremental_relearn) instead
  /// of rebuilding every parameter table — O(delta) per relearn, and with
  /// relearn_drift_threshold <= 0 byte-identical to kFull (CI-enforced, at
  /// any shard/thread count, including kill-and-resume: a resumed run
  /// rebuilds its engine from the checkpointed state, which the exactness
  /// guarantee makes indistinguishable from the maintained one).
  core::RelearnMode relearn_mode = core::RelearnMode::kFull;
  /// Width of the per-parameter fan-out inside a relearn (full build and
  /// delta application both); 1 = the serial loop, byte-identical at any
  /// width.
  int relearn_threads = 1;
  /// Incremental mode's escape hatch: every Nth relearn is a full rebuild
  /// anyway (0 = never), bounding any divergence an approximate
  /// relearn_drift_threshold > 0 could accumulate. Irrelevant for exactness
  /// at the default threshold, but kept on so a production-style window
  /// never drifts unboundedly far from the from-scratch model.
  int full_rebuild_every = 4;
  /// Re-test gate forwarded to IncrementalRelearnOptions::drift_threshold:
  /// <= 0 re-tests every touched parameter (exact); > 0 re-tests only
  /// parameters whose changed-row fraction reaches it OR whose ModelWatch
  /// drift p-value (when model_watch is on) falls below the engine's alpha.
  double relearn_drift_threshold = 0.0;
};

///// Recovery-mode counters (populated when ReplayOptions::robust).
struct RobustReplayTotals {
  std::size_t recovered = 0;         ///< implemented only after retry/resume
  std::size_t chunked = 0;           ///< plans split into > 1 push chunk
  std::size_t queued_degraded = 0;   ///< deferred while the breaker was open
  std::size_t drained = 0;           ///< deferred launches later implemented
  std::size_t still_queued = 0;      ///< deferrals unresolved at end of window
  std::size_t aborted_unlocked = 0;  ///< clean aborts on out-of-band unlock
  std::size_t fallout_terminal = 0;  ///< unrecoverable EMS fall-outs
  std::size_t rolled_back = 0;       ///< launches ending in kRolledBack
  std::size_t rollbacks = 0;         ///< rollback pushes completed
  std::size_t rollback_retries = 0;  ///< transient faults retried in rollbacks
  std::size_t rollback_failed = 0;   ///< rollback pushes that faulted terminally
  std::size_t reattempts = 0;        ///< forward pushes re-issued after rollback
  std::size_t quarantined = 0;       ///< carriers that hit the rollback cap
  std::size_t retries = 0;
  int breaker_trips = 0;
};

struct WeeklySummary {
  int week = 0;
  std::size_t launches = 0;
  std::size_t change_recommended = 0;
  std::size_t implemented = 0;
  std::size_t fallouts = 0;
  std::size_t rolled_back = 0;   ///< KPI-gated rollbacks this week (robust mode)
  std::size_t quarantined = 0;   ///< carriers quarantined this week (robust mode)
  std::size_t parameters_changed = 0;
  double mean_launched_kpi = 0.0;  ///< post-check quality of this week's cohort
};

struct ReplayReport {
  std::vector<WeeklySummary> weeks;
  SmartLaunchReport totals;       ///< Table 5 aggregate over the window
  RobustReplayTotals robust;      ///< recovery breakdown (robust mode only)
  double initial_network_kpi = 0.0;
  double final_network_kpi = 0.0;
  int engine_relearns = 0;
  /// True when the window stopped early on a drain request (SIGTERM/SIGINT
  /// via util::drain): the in-progress day finished, the final checkpoint
  /// sealed, and --resume continues bit-identically.
  bool drained = false;
};

class OperationReplay {
 public:
  /// One slot write as recorded by a parallel shard worker. Workers write
  /// the network state directly (launches touch disjoint slots) but must
  /// not touch the delta map; the main thread folds recorded writes into it
  /// during the per-day merge.
  struct RecordedWrite {
    bool pairwise = false;
    std::size_t pos = 0;     ///< position in the singular/pairwise column list
    std::size_t entity = 0;  ///< carrier id (singular) or edge index (pairwise)
    config::ValueIndex value = 0;
  };

  /// Copies `assignment` as the evolving network state. `topology`,
  /// `schema`, `catalog` and `rulebook_model` must outlive the replay.
  OperationReplay(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
                  const config::ParamCatalog& catalog,
                  const config::GroundTruthModel& ground_truth,
                  config::ConfigAssignment assignment, ReplayOptions options = {});
  ~OperationReplay();  // out-of-line: ModelWatch is forward-declared here

  /// Runs the full window and returns the report. Each carrier launches at
  /// most once; the launch order is a seeded shuffle of the inventory.
  ReplayReport run();

  /// The evolved snapshot (valid after run()).
  const config::ConfigAssignment& network_state() const { return state_; }

  /// The attached model watch (null when ReplayOptions::model_watch is
  /// false). Live during run() — the /modelz endpoint reads it mid-window.
  const core::ModelWatch* model_watch() const { return watch_.get(); }

 private:
  /// Slot identity for the evolving-state delta: (pairwise, column position,
  /// entity). Ordered so checkpoints serialize deterministically.
  using SlotKey = std::tuple<bool, std::size_t, std::size_t>;

  const netsim::Topology* topology_;
  const netsim::AttributeSchema* schema_;
  const config::ParamCatalog* catalog_;
  const config::GroundTruthModel* ground_truth_;
  config::ConfigAssignment state_;
  ReplayOptions options_;
  std::unique_ptr<core::ModelWatch> watch_;

  /// Slot writes since construction (delta vs. the initial assignment),
  /// tracked only when checkpointing is enabled.
  bool track_delta_ = false;
  std::map<SlotKey, config::ValueIndex> delta_;
  /// The delta frozen at the last engine re-learn (what the engine saw).
  std::map<SlotKey, config::ValueIndex> relearn_delta_;

  /// Writes a slot value into the evolving state. With `record` set the
  /// write is appended there instead of the delta map (thread-safe: shard
  /// workers only ever touch their own carriers' cells and their own record
  /// vector); without it the delta map is updated directly (serial path).
  void apply_slot(const SlotRef& slot, config::ValueIndex value,
                  std::vector<RecordedWrite>* record = nullptr);

  double mean_network_kpi() const;
};

}  // namespace auric::smartlaunch
