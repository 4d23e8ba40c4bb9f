#include "smartlaunch/replay.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/engine.h"
#include "core/model_watch.h"
#include "io/launch_state.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "smartlaunch/kpi.h"
#include "smartlaunch/sharded_ems.h"
#include "util/drain.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/strings.h"

namespace auric::smartlaunch {

namespace {

/// Replay-level instruments: how often a run resumed from a checkpoint, how
/// many launches replayed, and how long each weekly re-learn took.
struct ReplayMetrics {
  obs::Counter& resumes;
  obs::Counter& launches;
  obs::Histogram& relearn_seconds;
};

ReplayMetrics& replay_metrics() {
  auto& reg = obs::MetricsRegistry::global();
  static ReplayMetrics m{
      reg.counter("auric_replay_resumes_total", "replay runs resumed from a checkpoint"),
      reg.counter("auric_replay_launches_total", "carrier launches replayed"),
      reg.histogram("auric_engine_relearn_seconds", obs::default_seconds_bounds(),
                    "wall-clock duration of one engine re-learn (s)")};
  return m;
}

}  // namespace

OperationReplay::OperationReplay(const netsim::Topology& topology,
                                 const netsim::AttributeSchema& schema,
                                 const config::ParamCatalog& catalog,
                                 const config::GroundTruthModel& ground_truth,
                                 config::ConfigAssignment assignment, ReplayOptions options)
    : topology_(&topology),
      schema_(&schema),
      catalog_(&catalog),
      ground_truth_(&ground_truth),
      state_(std::move(assignment)),
      options_(options) {
  if (options_.model_watch) {
    watch_ = std::make_unique<core::ModelWatch>(catalog);
  }
}

OperationReplay::~OperationReplay() = default;

void OperationReplay::apply_slot(const SlotRef& slot, config::ValueIndex value,
                                 std::vector<RecordedWrite>* record) {
  const bool pairwise = catalog_->at(slot.param).kind == config::ParamKind::kPairwise;
  const std::size_t pos = slot.column;
  config::ParamColumn& col = pairwise ? state_.pairwise[pos] : state_.singular[pos];
  // Shard workers write one column at once, each for its own carriers: safe
  // only as in-place updates of configured slots, since an insert or erase
  // would shift entries under the other shards.
  const std::size_t i = col.find(slot.entity);
  if (i == config::ParamColumn::npos || value == config::kUnset) {
    throw std::logic_error("OperationReplay::apply_slot: slot " + std::to_string(slot.entity) +
                           " of parameter " + std::to_string(slot.param) +
                           (i == config::ParamColumn::npos ? " is not configured"
                                                           : " would be unset"));
  }
  // Intent is unchanged: the launch config is what the network RUNS, not
  // what engineering ultimately wants; cause tracking is reset to neutral.
  col.update_at(i, value, config::Cause::kDefault);
  if (record != nullptr) {
    record->push_back({pairwise, pos, slot.entity, value});
  } else if (track_delta_) {
    delta_[{pairwise, pos, slot.entity}] = value;
  }
}

namespace {

/// Quality of one carrier under `state` — same math as KpiModel, computed
/// over the carrier's own slots only (KpiModel scans the whole network,
/// which would be quadratic across a launch stream).
double carrier_quality(const netsim::Topology& topology, const config::ParamCatalog& catalog,
                       const config::ConfigAssignment& state, netsim::CarrierId carrier,
                       const KpiOptions& options = {}) {
  double quality = 1.0;
  const auto penalize = [&](const config::ParamColumn& col, const config::ParamDef& def,
                            std::size_t first, std::size_t last) {
    const int step_scale = std::max(1, def.domain.size() / 48);
    const config::ParamColumn::Range r = col.range(first, last);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (col.value_at(i) == col.intended_at(i)) continue;
      const double deviation =
          std::fabs(static_cast<double>(col.value_at(i) - col.intended_at(i))) /
          static_cast<double>(step_scale);
      quality -= options.penalty_per_deviation * std::min(3.0, deviation);
    }
  };
  const auto c = static_cast<std::size_t>(carrier);
  for (std::size_t si = 0; si < state.singular.size(); ++si) {
    penalize(state.singular[si], catalog.at(catalog.singular_ids()[si]), c, c + 1);
  }
  for (std::size_t pi = 0; pi < state.pairwise.size(); ++pi) {
    penalize(state.pairwise[pi], catalog.at(catalog.pairwise_ids()[pi]),
             topology.edge_offsets[c], topology.edge_offsets[c + 1]);
  }
  return std::max(options.min_quality, quality);
}

/// Per-launch facts a shard worker records for the main-thread merge. The
/// merge replays the serial counter arithmetic in global launch order, so
/// the aggregate report/week counters (and the FP-summed weekly KPI) come
/// out identical to a single serial stream over the same per-launch facts.
struct ShardLaunchResult {
  bool change_recommended = false;
  bool deferred_now = false;  ///< breaker open: launched vendor-only, queued
  bool robust_used = false;   ///< outcome derives from `rec`, not `outcome`
  LaunchOutcome outcome = LaunchOutcome::kNoChangeNeeded;
  std::size_t applied = 0;
  RobustLaunchRecord rec;
  double quality = 0.0;
  std::vector<OperationReplay::RecordedWrite> writes;
};

/// Per-drained-carrier facts from one shard's end-of-day drain.
struct ShardDrainResult {
  bool no_change = false;  ///< queue entry resolved with nothing to push
  RobustLaunchRecord rec;
  std::vector<OperationReplay::RecordedWrite> writes;
};

}  // namespace

double OperationReplay::mean_network_kpi() const {
  const KpiModel kpi(*topology_, *catalog_, state_);
  double total = 0.0;
  for (double q : kpi.all_qualities()) total += q;
  return total / static_cast<double>(topology_->carrier_count());
}

ReplayReport OperationReplay::run() {
  obs::ScopedSpan run_span("replay.run");
  ReplayMetrics& metrics = replay_metrics();
  ReplayReport report;

  const bool persist = !options_.state_dir.empty();
  track_delta_ = persist;
  const io::LaunchStateStore store(options_.state_dir.empty() ? "." : options_.state_dir,
                                   options_.checkpoint);

  // Launch order: a seeded shuffle; each carrier launches at most once.
  util::Rng rng(options_.seed);
  std::vector<netsim::CarrierId> queue;
  queue.reserve(topology_->carrier_count());
  for (std::size_t c = 0; c < topology_->carrier_count(); ++c) {
    queue.push_back(static_cast<netsim::CarrierId>(c));
  }
  rng.shuffle(queue);
  std::size_t cursor = 0;

  // One EMS per shard (shard 0 of a single-shard run is byte-identical to
  // the legacy single-EMS stream), one executor and one deferred queue per
  // shard: retries, breaker state and queued launches stay shard-local.
  const int shard_count = std::max(1, options_.shards);
  ShardedEms sharded(*topology_, shard_count, options_.ems);
  EmsSimulator& ems = sharded.shard(0);  // the single-shard path's instance
  std::vector<std::vector<netsim::CarrierId>> deferred(static_cast<std::size_t>(shard_count));
  const config::Rulebook rulebook(*ground_truth_, *catalog_);

  // Robust pushes route through a RobustLaunchController so replayed
  // launches share the KPI gate / rollback / quarantine semantics with the
  // pipeline. The gates own the executors in that mode; `executors[k]`
  // points at whichever instance is live for shard k so the
  // checkpoint/resume plumbing below is mode-agnostic.
  std::unique_ptr<KpiModel> gate_kpi;
  std::vector<std::unique_ptr<RobustLaunchController>> gates;
  std::vector<std::unique_ptr<RobustPushExecutor>> naive_executors;
  std::vector<RobustPushExecutor*> executors;
  for (int k = 0; k < shard_count; ++k) {
    RobustPushExecutor::Options exec_options = options_.robust_executor;
    exec_options.shard = k;
    naive_executors.push_back(
        std::make_unique<RobustPushExecutor>(sharded.shard(k), exec_options));
    executors.push_back(naive_executors.back().get());
  }

  // Engine + controller are rebuilt on the re-learn cadence so Auric keeps
  // learning from the evolving network.
  std::unique_ptr<core::AuricEngine> engine;
  std::unique_ptr<LaunchController> controller;
  core::AuricOptions engine_options;
  engine_options.learn_threads = std::max(1, options_.relearn_threads);
  // The controller captures engine state at construction, so BOTH relearn
  // modes rebuild it; only the engine itself is refreshed in place in
  // incremental mode.
  const auto bind_controller = [&] {
    controller = std::make_unique<LaunchController>(*engine, rulebook, state_,
                                                    options_.vendor_faults,
                                                    options_.push_policy, options_.seed);
    if (options_.robust) {
      if (gates.empty()) {
        // The gates' KPI oracle is controller->launch_quality (per carrier);
        // the model reference the constructor wants is only consulted on
        // paths the replay never takes (empty plans, internal deferral), so
        // one build at window start suffices — shared by every shard.
        gate_kpi = std::make_unique<KpiModel>(*topology_, *catalog_, state_);
        for (int k = 0; k < shard_count; ++k) {
          RobustPipelineOptions gate_options;
          gate_options.premature_unlock_prob = 0.0;  // the replay draws its own
          gate_options.seed = options_.seed;
          gate_options.executor = options_.robust_executor;
          gate_options.rollback = options_.rollback;
          gate_options.shard = k;
          gates.push_back(std::make_unique<RobustLaunchController>(
              *controller, sharded.shard(k), *gate_kpi, gate_options));
          executors[static_cast<std::size_t>(k)] = &gates.back()->executor_mutable();
        }
      } else {
        for (auto& gate : gates) gate->rebind(*controller);
      }
    }
  };
  const auto rebuild_engine = [&] {
    engine = std::make_unique<core::AuricEngine>(*topology_, *schema_, *catalog_, state_,
                                                 engine_options);
    if (watch_ != nullptr) engine->set_watch(watch_.get());
    bind_controller();
  };
  const auto relearn = [&] {
    obs::ScopedSpan relearn_span("replay.relearn");
    obs::ScopedTimer relearn_timer(metrics.relearn_seconds);
    // Incremental mode's escape hatch: every full_rebuild_every-th relearn
    // (counting the window-opening build as relearn 0) rebuilds from
    // scratch. engine_relearns is checkpointed, so a resumed run lands on
    // the same cadence position as an uninterrupted one.
    const bool forced_full = options_.full_rebuild_every > 0 &&
                             report.engine_relearns % options_.full_rebuild_every == 0;
    if (engine != nullptr && options_.relearn_mode == core::RelearnMode::kIncremental &&
        !forced_full) {
      core::IncrementalRelearnOptions inc;
      inc.drift_threshold = options_.relearn_drift_threshold;
      inc.watch = watch_.get();
      inc.threads = std::max(1, options_.relearn_threads);
      engine->incremental_relearn(state_, inc);
      bind_controller();
    } else {
      rebuild_engine();
    }
    relearn_delta_ = delta_;
    ++report.engine_relearns;
  };

  // Joins the KPI-gate verdict back to every parameter the launch planned
  // to change (DESIGN.md §17). Lock-free on the watch, so shard workers
  // call it directly; only terminal accept/rollback verdicts count.
  const auto record_gate_outcomes =
      [&](const RobustLaunchRecord& rec,
          const std::vector<LaunchController::PlannedChange>& changes) {
        if (watch_ == nullptr) return;
        const bool accepted = rec.outcome == RobustOutcome::kImplemented ||
                              rec.outcome == RobustOutcome::kRecovered;
        if (!accepted && rec.outcome != RobustOutcome::kRolledBack) return;
        for (const auto& change : changes) {
          watch_->record_gate_outcome(change.slot.param, accepted);
        }
      };

  WeeklySummary week;
  week.week = 1;
  double week_quality = 0.0;
  std::size_t week_quality_n = 0;
  const auto flush_week = [&] {
    week.mean_launched_kpi =
        week_quality_n > 0 ? week_quality / static_cast<double>(week_quality_n) : 0.0;
    report.weeks.push_back(week);
    week = WeeklySummary{};
    week.week = static_cast<int>(report.weeks.size()) + 1;
    week_quality = 0.0;
    week_quality_n = 0;
  };

  // Writes one delta cell back into the evolving state (resume path).
  const auto write_cell = [&](const io::LaunchState::SlotWrite& w) {
    auto& columns = w.pairwise ? state_.pairwise : state_.singular;
    if (w.param_pos >= columns.size()) {
      throw std::invalid_argument(store.dir() + ": persisted slot write names column " +
                                  std::to_string(w.param_pos) + " of " +
                                  std::to_string(columns.size()));
    }
    config::ParamColumn& col = columns[w.param_pos];
    if (w.entity >= col.entities()) {
      throw std::invalid_argument(store.dir() + ": persisted slot write names entity " +
                                  std::to_string(w.entity) + " of " +
                                  std::to_string(col.entities()));
    }
    col.set(w.entity, w.value, col.intended_of(w.entity), config::Cause::kDefault);
  };

  int start_day = 0;
  int start_launch = 0;
  if (persist && options_.resume && store.exists()) {
    metrics.resumes.inc();
    const io::LaunchState state = store.load();
    const auto progress_value = [&](const std::string& key) -> const std::string& {
      const std::string* value = state.find_progress(key);
      if (value == nullptr) {
        throw std::invalid_argument(store.dir() + "/progress.csv: missing key '" + key + "'");
      }
      return *value;
    };
    const auto p_int = [&](const std::string& key) {
      return std::stoll(progress_value(key));
    };
    const auto p_size = [&](const std::string& key) {
      return static_cast<std::size_t>(p_int(key));
    };
    const auto p_double = [&](const std::string& key) {
      return std::stod(progress_value(key));  // hexfloat: bit-exact round trip
    };

    // Rebuild the engine from the state it actually learned from (the delta
    // frozen at the last re-learn), then fast-forward the evolving state to
    // the checkpoint. The re-learn counter comes from the checkpoint, so the
    // rebuild is not double-counted.
    for (const io::LaunchState::SlotWrite& w : state.relearn_applied_slots) {
      write_cell(w);
      relearn_delta_[{w.pairwise, w.param_pos, static_cast<std::size_t>(w.entity)}] = w.value;
    }
    rebuild_engine();
    for (const io::LaunchState::SlotWrite& w : state.applied_slots) {
      write_cell(w);
      delta_[{w.pairwise, w.param_pos, static_cast<std::size_t>(w.entity)}] = w.value;
    }

    // The checkpoint's shard layout must match the options: a sharded
    // checkpoint encodes per-shard fault-stream positions that cannot be
    // re-partitioned into a different shard count.
    if (shard_count == 1) {
      if (!state.shards.empty()) {
        throw std::invalid_argument(store.dir() + ": checkpoint was written with " +
                                    std::to_string(state.shards.size()) +
                                    " shards; resume requested 1");
      }
      ems.restore(ems_state_from_io(state.ems));
      executors[0]->restore_journal(state.journal);
      executors[0]->restore_breaker(state.breaker);
      if (!gates.empty()) gates[0]->restore_quarantine(state.quarantine);
      deferred[0] = state.deferred;
    } else {
      if (state.shards.size() != static_cast<std::size_t>(shard_count)) {
        throw std::invalid_argument(store.dir() + ": checkpoint was written with " +
                                    std::to_string(state.shards.size()) +
                                    " shards; resume requested " + std::to_string(shard_count));
      }
      for (int k = 0; k < shard_count; ++k) {
        const io::LaunchState::ShardState& shard = state.shards[static_cast<std::size_t>(k)];
        sharded.shard(k).restore(ems_state_from_io(shard.ems));
        executors[static_cast<std::size_t>(k)]->restore_journal(shard.journal);
        executors[static_cast<std::size_t>(k)]->restore_breaker(shard.breaker);
        if (!gates.empty()) gates[static_cast<std::size_t>(k)]->restore_quarantine(shard.quarantine);
        deferred[static_cast<std::size_t>(k)] = shard.deferred;
      }
    }

    start_day = static_cast<int>(p_int("day"));
    start_launch = static_cast<int>(p_int("launch"));
    cursor = p_size("cursor");
    report.engine_relearns = static_cast<int>(p_int("relearns"));
    report.initial_network_kpi = p_double("initial_network_kpi");
    report.totals.launches = p_size("totals.launches");
    report.totals.change_recommended = p_size("totals.change_recommended");
    report.totals.implemented = p_size("totals.implemented");
    report.totals.fallout_unlocked = p_size("totals.fallout_unlocked");
    report.totals.fallout_timeout = p_size("totals.fallout_timeout");
    report.totals.parameters_changed = p_size("totals.parameters_changed");
    report.robust.recovered = p_size("robust.recovered");
    report.robust.chunked = p_size("robust.chunked");
    report.robust.queued_degraded = p_size("robust.queued_degraded");
    report.robust.drained = p_size("robust.drained");
    report.robust.aborted_unlocked = p_size("robust.aborted_unlocked");
    report.robust.fallout_terminal = p_size("robust.fallout_terminal");
    report.robust.rolled_back = p_size("robust.rolled_back");
    report.robust.rollbacks = p_size("robust.rollbacks");
    report.robust.rollback_retries = p_size("robust.rollback_retries");
    report.robust.rollback_failed = p_size("robust.rollback_failed");
    report.robust.reattempts = p_size("robust.reattempts");
    report.robust.quarantined = p_size("robust.quarantined");
    report.robust.retries = p_size("robust.retries");
    const std::size_t weeks_done = p_size("weeks");
    for (std::size_t wk = 0; wk < weeks_done; ++wk) {
      const std::string prefix = "week." + std::to_string(wk + 1) + ".";
      WeeklySummary done;
      done.week = static_cast<int>(wk) + 1;
      done.launches = p_size(prefix + "launches");
      done.change_recommended = p_size(prefix + "change_recommended");
      done.implemented = p_size(prefix + "implemented");
      done.fallouts = p_size(prefix + "fallouts");
      done.rolled_back = p_size(prefix + "rolled_back");
      done.quarantined = p_size(prefix + "quarantined");
      done.parameters_changed = p_size(prefix + "parameters_changed");
      done.mean_launched_kpi = p_double(prefix + "kpi");
      report.weeks.push_back(done);
    }
    week.week = static_cast<int>(p_int("week.number"));
    week.launches = p_size("week.launches");
    week.change_recommended = p_size("week.change_recommended");
    week.implemented = p_size("week.implemented");
    week.fallouts = p_size("week.fallouts");
    week.rolled_back = p_size("week.rolled_back");
    week.quarantined = p_size("week.quarantined");
    week.parameters_changed = p_size("week.parameters_changed");
    week_quality = p_double("week.quality");
    week_quality_n = p_size("week.quality_n");
  } else {
    report.initial_network_kpi = mean_network_kpi();
    relearn();
  }

  const auto checkpoint = [&](int day, int launch_in_day) {
    io::LaunchState state;
    const auto sorted_journal = [](const RobustPushExecutor& exec) {
      std::vector<std::pair<netsim::CarrierId, std::uint64_t>> journal;
      for (const auto& [carrier, applied] : exec.journal()) {
        journal.emplace_back(carrier, static_cast<std::uint64_t>(applied));
      }
      std::sort(journal.begin(), journal.end());
      return journal;
    };
    const auto sorted_quarantine = [&](int k) {
      std::vector<std::pair<netsim::CarrierId, int>> quarantine;
      if (!gates.empty()) {
        const auto& q = gates[static_cast<std::size_t>(k)]->quarantine();
        quarantine.assign(q.begin(), q.end());
        std::sort(quarantine.begin(), quarantine.end());
      }
      return quarantine;
    };
    if (shard_count == 1) {
      state.journal = sorted_journal(*executors[0]);
      state.deferred = deferred[0];
      state.quarantine = sorted_quarantine(0);
      state.breaker = executors[0]->breaker().snapshot();
      state.ems = ems_state_to_io(ems.snapshot());
    } else {
      state.shards.resize(static_cast<std::size_t>(shard_count));
      for (int k = 0; k < shard_count; ++k) {
        io::LaunchState::ShardState& shard = state.shards[static_cast<std::size_t>(k)];
        shard.journal = sorted_journal(*executors[static_cast<std::size_t>(k)]);
        shard.deferred = deferred[static_cast<std::size_t>(k)];
        shard.quarantine = sorted_quarantine(k);
        shard.breaker = executors[static_cast<std::size_t>(k)]->breaker().snapshot();
        shard.ems = ems_state_to_io(sharded.shard(k).snapshot());
      }
    }
    const auto to_writes = [](const std::map<SlotKey, config::ValueIndex>& delta) {
      std::vector<io::LaunchState::SlotWrite> writes;
      writes.reserve(delta.size());
      for (const auto& [key, value] : delta) {
        writes.push_back({std::get<0>(key), static_cast<std::uint32_t>(std::get<1>(key)),
                          static_cast<std::uint64_t>(std::get<2>(key)), value});
      }
      return writes;
    };
    state.applied_slots = to_writes(delta_);
    state.relearn_applied_slots = to_writes(relearn_delta_);

    auto& p = state.progress;
    const auto put = [&](const std::string& key, std::size_t value) {
      p.emplace_back(key, std::to_string(value));
    };
    p.emplace_back("day", std::to_string(day));
    p.emplace_back("launch", std::to_string(launch_in_day));
    put("cursor", cursor);
    p.emplace_back("relearns", std::to_string(report.engine_relearns));
    p.emplace_back("initial_network_kpi", util::format("%a", report.initial_network_kpi));
    put("totals.launches", report.totals.launches);
    put("totals.change_recommended", report.totals.change_recommended);
    put("totals.implemented", report.totals.implemented);
    put("totals.fallout_unlocked", report.totals.fallout_unlocked);
    put("totals.fallout_timeout", report.totals.fallout_timeout);
    put("totals.parameters_changed", report.totals.parameters_changed);
    put("robust.recovered", report.robust.recovered);
    put("robust.chunked", report.robust.chunked);
    put("robust.queued_degraded", report.robust.queued_degraded);
    put("robust.drained", report.robust.drained);
    put("robust.aborted_unlocked", report.robust.aborted_unlocked);
    put("robust.fallout_terminal", report.robust.fallout_terminal);
    put("robust.rolled_back", report.robust.rolled_back);
    put("robust.rollbacks", report.robust.rollbacks);
    put("robust.rollback_retries", report.robust.rollback_retries);
    put("robust.rollback_failed", report.robust.rollback_failed);
    put("robust.reattempts", report.robust.reattempts);
    put("robust.quarantined", report.robust.quarantined);
    put("robust.retries", report.robust.retries);
    put("weeks", report.weeks.size());
    for (const WeeklySummary& done : report.weeks) {
      const std::string prefix = "week." + std::to_string(done.week) + ".";
      put(prefix + "launches", done.launches);
      put(prefix + "change_recommended", done.change_recommended);
      put(prefix + "implemented", done.implemented);
      put(prefix + "fallouts", done.fallouts);
      put(prefix + "rolled_back", done.rolled_back);
      put(prefix + "quarantined", done.quarantined);
      put(prefix + "parameters_changed", done.parameters_changed);
      p.emplace_back(prefix + "kpi", util::format("%a", done.mean_launched_kpi));
    }
    p.emplace_back("week.number", std::to_string(week.week));
    put("week.launches", week.launches);
    put("week.change_recommended", week.change_recommended);
    put("week.implemented", week.implemented);
    put("week.fallouts", week.fallouts);
    put("week.rolled_back", week.rolled_back);
    put("week.quarantined", week.quarantined);
    put("week.parameters_changed", week.parameters_changed);
    p.emplace_back("week.quality", util::format("%a", week_quality));
    put("week.quality_n", week_quality_n);
    store.save(state);
  };

  bool stopped = false;

  // Serial window: the exact legacy single-EMS loop, kept verbatim so a
  // --shards 1 run stays byte-identical to earlier releases (per-launch
  // checkpoint cadence included).
  const auto run_serial_window = [&] {
    RobustLaunchController* gate = gates.empty() ? nullptr : gates[0].get();
    RobustPushExecutor* executor = executors[0];
    std::vector<netsim::CarrierId>& dq = deferred[0];
    for (int day = start_day; day < options_.days && !stopped; ++day) {
      obs::ScopedSpan day_span("replay.day");
      const int first_launch = day == start_day ? start_launch : 0;
      // A checkpoint taken mid-day (first_launch > 0) implies this day's
      // re-learn already happened before the checkpoint.
      if (first_launch == 0 && day > 0 && day % options_.relearn_every_days == 0) relearn();

      for (int l = first_launch; l < options_.launches_per_day && cursor < queue.size(); ++l) {
        obs::ScopedSpan launch_span("replay.launch");
        metrics.launches.inc();
        const netsim::CarrierId carrier = queue[cursor++];

        // Vendor integration: the carrier goes on air with the vendor config
        // plus whatever Auric corrections land before unlock.
        std::vector<LaunchController::PlannedChange> vendor;
        const std::vector<LaunchController::PlannedChange> changes =
            controller->plan_changes_detailed(carrier, &vendor);

        ++report.totals.launches;
        ++week.launches;

        ems.lock(carrier);
        LaunchOutcome outcome = LaunchOutcome::kNoChangeNeeded;
        std::size_t applied = 0;
        if (!changes.empty()) {
          ++report.totals.change_recommended;
          ++week.change_recommended;
          if (options_.robust && executor->should_defer()) {
            // Breaker open: the carrier goes on air vendor-only and its
            // corrections wait in the deferred queue (outcome stays
            // kNoChangeNeeded so it counts as neither implemented nor
            // fall-out until the drain resolves it).
            dq.push_back(carrier);
            ++report.robust.queued_degraded;
          } else {
            const double u =
                static_cast<double>(util::hash_combine({options_.seed, 0x0B0BULL,
                                                        static_cast<std::uint64_t>(carrier)}) >>
                                    11) *
                0x1.0p-53;
            if (u < options_.pipeline.premature_unlock_prob) ems.unlock_out_of_band(carrier);
            if (options_.robust) {
              // KPI-gated push: the gate runs the quarantine check, forward
              // push, rollback loop and unlock, and owns the journal cleanup
              // for terminal outcomes.
              const RobustLaunchRecord rec = gate->push_gated_launch(carrier, changes);
              record_gate_outcomes(rec, changes);
              applied = rec.changes_applied;
              report.robust.retries += static_cast<std::size_t>(rec.retries);
              if (rec.chunks > 1) ++report.robust.chunked;
              report.robust.rollbacks += static_cast<std::size_t>(rec.rollbacks);
              report.robust.rollback_retries += static_cast<std::size_t>(rec.rollback_retries);
              report.robust.reattempts += static_cast<std::size_t>(rec.reattempts);
              if (rec.rollback_failed) ++report.robust.rollback_failed;
              if (rec.quarantined) {
                ++report.robust.quarantined;
                ++week.quarantined;
              }
              switch (rec.outcome) {
                case RobustOutcome::kRecovered: ++report.robust.recovered; [[fallthrough]];
                case RobustOutcome::kImplemented:
                  outcome = LaunchOutcome::kImplemented;
                  break;
                case RobustOutcome::kAbortedUnlocked:
                  ++report.robust.aborted_unlocked;
                  outcome = LaunchOutcome::kFalloutUnlocked;
                  break;
                case RobustOutcome::kFalloutTerminal:
                  ++report.robust.fallout_terminal;
                  outcome = LaunchOutcome::kFalloutTimeout;
                  break;
                case RobustOutcome::kRolledBack:
                  // Reverted to vendor values (or quarantine-skipped): neither
                  // implemented nor an EMS fall-out — the gate withdrew the
                  // changes on purpose. Counted in its own column.
                  ++report.robust.rolled_back;
                  ++week.rolled_back;
                  break;
                case RobustOutcome::kNoChangeNeeded:
                case RobustOutcome::kQueuedDegraded:  // gate never returns this
                  break;
              }
            } else {
              std::vector<config::MoSetting> settings;
              settings.reserve(changes.size());
              for (const auto& change : changes) {
                settings.push_back({change.slot.mo_path, change.slot.param, change.new_value});
              }
              const PushResult push = ems.push(carrier, settings);
              applied = push.applied;
              switch (push.status) {
                case PushStatus::kApplied: outcome = LaunchOutcome::kImplemented; break;
                case PushStatus::kRejectedUnlocked:
                case PushStatus::kAbortedLockFlap:
                  outcome = LaunchOutcome::kFalloutUnlocked;
                  break;
                case PushStatus::kTimeout: outcome = LaunchOutcome::kFalloutTimeout; break;
              }
            }
          }
        }
        ems.unlock(carrier);

        // The network state evolves: vendor values everywhere, plus the
        // corrections that actually landed (settings apply in order).
        for (const auto& slot_value : vendor) apply_slot(slot_value.slot, slot_value.new_value);
        for (std::size_t i = 0; i < applied && i < changes.size(); ++i) {
          apply_slot(changes[i].slot, changes[i].new_value);
        }

        switch (outcome) {
          case LaunchOutcome::kImplemented:
            ++report.totals.implemented;
            ++week.implemented;
            report.totals.parameters_changed += applied;
            week.parameters_changed += applied;
            break;
          case LaunchOutcome::kFalloutUnlocked:
            ++report.totals.fallout_unlocked;
            ++week.fallouts;
            break;
          case LaunchOutcome::kFalloutTimeout:
            ++report.totals.fallout_timeout;
            ++week.fallouts;
            break;
          case LaunchOutcome::kNoChangeNeeded: break;
        }

        // Post-check KPI of the launched carrier under the evolved state.
        week_quality += carrier_quality(*topology_, *catalog_, state_, carrier);
        ++week_quality_n;

        if (persist) checkpoint(day, l + 1);
        if (options_.stop_after_launches > 0 &&
            report.totals.launches >= static_cast<std::size_t>(options_.stop_after_launches)) {
          stopped = true;
          break;
        }
      }
      if (stopped) break;

      // End-of-day maintenance window: once the breaker has closed again,
      // drain the deferred queue — re-lock each queued carrier (the simulator
      // counts the disruptive cycle), re-plan against the current engine, and
      // push with the same chunk/retry/journal machinery.
      std::optional<obs::ScopedSpan> drain_span;
      if (options_.robust && !dq.empty() &&
          executor->breaker().state() == util::CircuitBreaker::State::kClosed) {
        drain_span.emplace("replay.drain");
      }
      while (options_.robust && !dq.empty() &&
             executor->breaker().state() == util::CircuitBreaker::State::kClosed) {
        const netsim::CarrierId carrier = dq.front();
        dq.erase(dq.begin());
        ems.lock(carrier);
        const std::vector<LaunchController::PlannedChange> changes =
            controller->plan_changes_detailed(carrier);
        if (changes.empty()) {
          // The engine re-learned since the deferral and no longer flags the
          // carrier: the queue entry resolves with nothing to push.
          ems.unlock(carrier);
          ++report.robust.drained;
          ++report.totals.implemented;
          ++week.implemented;
          if (persist) checkpoint(day, options_.launches_per_day);
          continue;
        }
        // Same KPI-gated path as the main launch stream (unlocks internally).
        const RobustLaunchRecord rec = gate->push_gated_launch(carrier, changes);
        record_gate_outcomes(rec, changes);
        report.robust.retries += static_cast<std::size_t>(rec.retries);
        report.robust.rollbacks += static_cast<std::size_t>(rec.rollbacks);
        report.robust.rollback_retries += static_cast<std::size_t>(rec.rollback_retries);
        report.robust.reattempts += static_cast<std::size_t>(rec.reattempts);
        if (rec.rollback_failed) ++report.robust.rollback_failed;
        if (rec.quarantined) {
          ++report.robust.quarantined;
          ++week.quarantined;
        }
        for (std::size_t i = 0; i < rec.changes_applied && i < changes.size(); ++i) {
          apply_slot(changes[i].slot, changes[i].new_value);
        }
        if (rec.outcome == RobustOutcome::kImplemented ||
            rec.outcome == RobustOutcome::kRecovered) {
          if (rec.outcome == RobustOutcome::kRecovered) ++report.robust.recovered;
          ++report.robust.drained;
          ++report.totals.implemented;
          ++week.implemented;
          report.totals.parameters_changed += rec.changes_applied;
          week.parameters_changed += rec.changes_applied;
        } else if (rec.outcome == RobustOutcome::kFalloutTerminal) {
          ++report.robust.fallout_terminal;
          ++report.totals.fallout_timeout;
          ++week.fallouts;
        } else if (rec.outcome == RobustOutcome::kAbortedUnlocked) {
          ++report.robust.aborted_unlocked;
          ++report.totals.fallout_unlocked;
          ++week.fallouts;
        } else if (rec.outcome == RobustOutcome::kRolledBack) {
          ++report.robust.rolled_back;
          ++week.rolled_back;
        }
        if (persist) checkpoint(day, options_.launches_per_day);
      }
      drain_span.reset();

      // Close the telemetry day: day-over-day drift (chi-square + PSI) and
      // coverage gauges. Metrics only — never part of the replay output.
      if (watch_ != nullptr) watch_->roll_day();

      if ((day + 1) % 7 == 0 || day + 1 == options_.days) flush_week();
      if (persist) checkpoint(day + 1, 0);
      if (util::drain_requested()) {
        // Graceful drain: the day just completed and (when persisting) its
        // sealed checkpoint committed, so --resume continues bit-identically
        // — the same stopping point stop_after_launches would produce.
        stopped = true;
        report.drained = true;
      }
    }
  };

  // Sharded window: each day's launch batch partitions by shard (market
  // keyed, so every slot a launch touches is shard-local) and executes in
  // parallel — one task per shard, serial within the shard because each
  // shard's EMS fault streams are serial devices. Workers write the network
  // state directly (disjoint slices) and record per-launch facts; the main
  // thread then folds those into the report in global launch order, which
  // keeps counters and the FP-summed weekly KPI deterministic for any
  // worker count. Checkpoints are day-granular: the parallel stream has no
  // serializable mid-day cursor.
  const auto run_sharded_window = [&] {
    util::TaskPool& pool = util::TaskPool::shared();
    for (int day = start_day; day < options_.days && !stopped; ++day) {
      obs::ScopedSpan day_span("replay.day");
      if (day > 0 && day % options_.relearn_every_days == 0) relearn();

      const std::size_t batch = std::min(static_cast<std::size_t>(options_.launches_per_day),
                                         queue.size() - cursor);
      const std::size_t first = cursor;
      cursor += batch;

      std::vector<std::vector<std::size_t>> by_shard(static_cast<std::size_t>(shard_count));
      for (std::size_t i = 0; i < batch; ++i) {
        by_shard[static_cast<std::size_t>(sharded.shard_of(queue[first + i]))].push_back(i);
      }

      std::vector<ShardLaunchResult> results(batch);
      std::vector<std::vector<ShardDrainResult>> drains(static_cast<std::size_t>(shard_count));

      const auto run_shard = [&](int k) {
        EmsSimulator& shard_ems = sharded.shard(k);
        RobustPushExecutor& executor = *executors[static_cast<std::size_t>(k)];
        RobustLaunchController* gate =
            gates.empty() ? nullptr : gates[static_cast<std::size_t>(k)].get();
        std::vector<netsim::CarrierId>& dq = deferred[static_cast<std::size_t>(k)];

        for (std::size_t i : by_shard[static_cast<std::size_t>(k)]) {
          obs::ScopedSpan launch_span("replay.launch");
          metrics.launches.inc();
          const netsim::CarrierId carrier = queue[first + i];
          ShardLaunchResult& r = results[i];

          std::vector<LaunchController::PlannedChange> vendor;
          const std::vector<LaunchController::PlannedChange> changes =
              controller->plan_changes_detailed(carrier, &vendor);

          shard_ems.lock(carrier);
          if (!changes.empty()) {
            r.change_recommended = true;
            if (options_.robust && executor.should_defer()) {
              dq.push_back(carrier);
              r.deferred_now = true;
            } else {
              const double u =
                  static_cast<double>(util::hash_combine({options_.seed, 0x0B0BULL,
                                                          static_cast<std::uint64_t>(carrier)}) >>
                                      11) *
                  0x1.0p-53;
              if (u < options_.pipeline.premature_unlock_prob) {
                shard_ems.unlock_out_of_band(carrier);
              }
              if (options_.robust) {
                r.rec = gate->push_gated_launch(carrier, changes);
                record_gate_outcomes(r.rec, changes);
                r.robust_used = true;
                r.applied = r.rec.changes_applied;
              } else {
                std::vector<config::MoSetting> settings;
                settings.reserve(changes.size());
                for (const auto& change : changes) {
                  settings.push_back({change.slot.mo_path, change.slot.param, change.new_value});
                }
                const PushResult push = shard_ems.push(carrier, settings);
                r.applied = push.applied;
                switch (push.status) {
                  case PushStatus::kApplied: r.outcome = LaunchOutcome::kImplemented; break;
                  case PushStatus::kRejectedUnlocked:
                  case PushStatus::kAbortedLockFlap:
                    r.outcome = LaunchOutcome::kFalloutUnlocked;
                    break;
                  case PushStatus::kTimeout:
                    r.outcome = LaunchOutcome::kFalloutTimeout;
                    break;
                }
              }
            }
          }
          shard_ems.unlock(carrier);

          for (const auto& slot_value : vendor) {
            apply_slot(slot_value.slot, slot_value.new_value, &r.writes);
          }
          for (std::size_t s = 0; s < r.applied && s < changes.size(); ++s) {
            apply_slot(changes[s].slot, changes[s].new_value, &r.writes);
          }
          r.quality = carrier_quality(*topology_, *catalog_, state_, carrier);
        }

        // Shard-local end-of-day drain: same machinery as the serial path,
        // with the counter arithmetic deferred to the merge.
        while (options_.robust && !dq.empty() &&
               executor.breaker().state() == util::CircuitBreaker::State::kClosed) {
          const netsim::CarrierId carrier = dq.front();
          dq.erase(dq.begin());
          shard_ems.lock(carrier);
          const std::vector<LaunchController::PlannedChange> changes =
              controller->plan_changes_detailed(carrier);
          ShardDrainResult d;
          if (changes.empty()) {
            shard_ems.unlock(carrier);
            d.no_change = true;
          } else {
            d.rec = gate->push_gated_launch(carrier, changes);
            record_gate_outcomes(d.rec, changes);
            for (std::size_t s = 0; s < d.rec.changes_applied && s < changes.size(); ++s) {
              apply_slot(changes[s].slot, changes[s].new_value, &d.writes);
            }
          }
          drains[static_cast<std::size_t>(k)].push_back(std::move(d));
        }
      };

      std::vector<std::function<void()>> tasks;
      for (int k = 0; k < shard_count; ++k) {
        const bool has_launches = !by_shard[static_cast<std::size_t>(k)].empty();
        const bool has_drain = options_.robust && !deferred[static_cast<std::size_t>(k)].empty();
        if (has_launches || has_drain) tasks.push_back([&run_shard, k] { run_shard(k); });
      }
      pool.run(std::move(tasks));

      // Ordered merge. merge_robust_record mirrors the serial per-record
      // bookkeeping shared by launches and drains.
      const auto merge_robust_record = [&](const RobustLaunchRecord& rec) {
        report.robust.retries += static_cast<std::size_t>(rec.retries);
        report.robust.rollbacks += static_cast<std::size_t>(rec.rollbacks);
        report.robust.rollback_retries += static_cast<std::size_t>(rec.rollback_retries);
        report.robust.reattempts += static_cast<std::size_t>(rec.reattempts);
        if (rec.rollback_failed) ++report.robust.rollback_failed;
        if (rec.quarantined) {
          ++report.robust.quarantined;
          ++week.quarantined;
        }
      };
      const auto merge_writes = [&](const std::vector<RecordedWrite>& writes) {
        if (!track_delta_) return;
        for (const RecordedWrite& w : writes) delta_[{w.pairwise, w.pos, w.entity}] = w.value;
      };

      for (std::size_t i = 0; i < batch; ++i) {
        const ShardLaunchResult& r = results[i];
        ++report.totals.launches;
        ++week.launches;
        if (r.change_recommended) {
          ++report.totals.change_recommended;
          ++week.change_recommended;
        }
        if (r.deferred_now) ++report.robust.queued_degraded;
        LaunchOutcome outcome = r.outcome;
        if (r.robust_used) {
          merge_robust_record(r.rec);
          if (r.rec.chunks > 1) ++report.robust.chunked;
          switch (r.rec.outcome) {
            case RobustOutcome::kRecovered: ++report.robust.recovered; [[fallthrough]];
            case RobustOutcome::kImplemented:
              outcome = LaunchOutcome::kImplemented;
              break;
            case RobustOutcome::kAbortedUnlocked:
              ++report.robust.aborted_unlocked;
              outcome = LaunchOutcome::kFalloutUnlocked;
              break;
            case RobustOutcome::kFalloutTerminal:
              ++report.robust.fallout_terminal;
              outcome = LaunchOutcome::kFalloutTimeout;
              break;
            case RobustOutcome::kRolledBack:
              ++report.robust.rolled_back;
              ++week.rolled_back;
              outcome = LaunchOutcome::kNoChangeNeeded;
              break;
            case RobustOutcome::kNoChangeNeeded:
            case RobustOutcome::kQueuedDegraded:  // gate never returns this
              outcome = LaunchOutcome::kNoChangeNeeded;
              break;
          }
        }
        merge_writes(r.writes);
        switch (outcome) {
          case LaunchOutcome::kImplemented:
            ++report.totals.implemented;
            ++week.implemented;
            report.totals.parameters_changed += r.applied;
            week.parameters_changed += r.applied;
            break;
          case LaunchOutcome::kFalloutUnlocked:
            ++report.totals.fallout_unlocked;
            ++week.fallouts;
            break;
          case LaunchOutcome::kFalloutTimeout:
            ++report.totals.fallout_timeout;
            ++week.fallouts;
            break;
          case LaunchOutcome::kNoChangeNeeded: break;
        }
        week_quality += r.quality;
        ++week_quality_n;
      }

      for (int k = 0; k < shard_count; ++k) {
        for (const ShardDrainResult& d : drains[static_cast<std::size_t>(k)]) {
          if (d.no_change) {
            ++report.robust.drained;
            ++report.totals.implemented;
            ++week.implemented;
            continue;
          }
          merge_robust_record(d.rec);
          merge_writes(d.writes);
          if (d.rec.outcome == RobustOutcome::kImplemented ||
              d.rec.outcome == RobustOutcome::kRecovered) {
            if (d.rec.outcome == RobustOutcome::kRecovered) ++report.robust.recovered;
            ++report.robust.drained;
            ++report.totals.implemented;
            ++week.implemented;
            report.totals.parameters_changed += d.rec.changes_applied;
            week.parameters_changed += d.rec.changes_applied;
          } else if (d.rec.outcome == RobustOutcome::kFalloutTerminal) {
            ++report.robust.fallout_terminal;
            ++report.totals.fallout_timeout;
            ++week.fallouts;
          } else if (d.rec.outcome == RobustOutcome::kAbortedUnlocked) {
            ++report.robust.aborted_unlocked;
            ++report.totals.fallout_unlocked;
            ++week.fallouts;
          } else if (d.rec.outcome == RobustOutcome::kRolledBack) {
            ++report.robust.rolled_back;
            ++week.rolled_back;
          }
        }
      }

      // Close the telemetry day after the merge (workers are quiescent).
      if (watch_ != nullptr) watch_->roll_day();

      if (options_.stop_after_launches > 0 &&
          report.totals.launches >= static_cast<std::size_t>(options_.stop_after_launches)) {
        stopped = true;  // day granularity: the whole day ran, then we stop
      }
      if ((day + 1) % 7 == 0 || day + 1 == options_.days) flush_week();
      if (persist) checkpoint(day + 1, 0);
      if (util::drain_requested()) {
        stopped = true;  // same day-granular stopping point as the serial window
        report.drained = true;
      }
    }
  };

  if (shard_count == 1) {
    run_serial_window();
  } else {
    run_sharded_window();
  }

  for (int k = 0; k < shard_count; ++k) {
    report.robust.breaker_trips += executors[static_cast<std::size_t>(k)]->breaker().trips();
    report.robust.still_queued += deferred[static_cast<std::size_t>(k)].size();
  }

  report.final_network_kpi = mean_network_kpi();
  return report;
}

}  // namespace auric::smartlaunch
