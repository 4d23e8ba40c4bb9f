// Crash-matrix suite for the journal checkpoint (DESIGN.md §14).
//
// Strategy: record the FaultFs operation trace of an uninterrupted save
// sequence, then replay the identical sequence once per operation index,
// crashing at that index with a rotating fault flavor (die-before,
// die-after, short write, torn tail). After every crash the store is
// reopened like a restarted process: the loaded state must be EXACTLY one
// of the states the sequence committed — never a blend — and finishing the
// sequence must converge to the final state bit for bit. A replay-level
// matrix does the same at every named crash point of the store's catalog
// during a multi-day sharded window, asserting the resumed run's weekly
// report is identical to an uninterrupted baseline.
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "io/fault_fs.h"
#include "io/launch_state.h"
#include "smartlaunch/replay.h"
#include "test_helpers.h"

namespace auric {
namespace {

using io::CrashInjected;
using io::FaultFs;
using io::LaunchState;
using io::LaunchStateStore;

constexpr FaultFs::Fault kCrashFaults[] = {
    FaultFs::Fault::kCrashBefore, FaultFs::Fault::kCrashAfter,
    FaultFs::Fault::kShortWrite, FaultFs::Fault::kTornTail};

std::string temp_dir(const std::string& tag) {
  const auto path = std::filesystem::temp_directory_path() / ("auric_crash_" + tag);
  std::filesystem::remove_all(path);
  std::filesystem::create_directories(path);
  return path.string();
}

// --- Deterministic evolving state -----------------------------------------

void fill_block(int salt, int step, std::vector<std::pair<netsim::CarrierId, std::uint64_t>>& journal,
                std::vector<netsim::CarrierId>& deferred,
                std::vector<std::pair<netsim::CarrierId, int>>& quarantine,
                util::CircuitBreaker::Snapshot& breaker, LaunchState::EmsState& ems) {
  journal.clear();
  for (int k = 0; k < 3 + step; ++k) {
    journal.emplace_back(static_cast<netsim::CarrierId>(k * 3 + salt),
                         static_cast<std::uint64_t>(100 + step * 11 + k + salt));
  }
  deferred.clear();
  for (int i = 0; i <= step % 3; ++i) {
    deferred.push_back(static_cast<netsim::CarrierId>((salt + step + i * 5) % 17));
  }
  quarantine.clear();
  for (int k = 0; k < step % 3; ++k) {
    quarantine.emplace_back(static_cast<netsim::CarrierId>(40 + salt + k * 4),
                            1 + (step + k) % 3);
  }
  using State = util::CircuitBreaker::State;
  constexpr State kStates[] = {State::kClosed, State::kOpen, State::kHalfOpen};
  breaker.state = kStates[(step + salt) % 3];
  breaker.consecutive_failures = step % 4;
  breaker.cooldown_remaining = (step * 2 + salt) % 5;
  breaker.trips = step / 2;
  breaker.refusals = step + salt;
  ems.pushes_executed = static_cast<std::uint64_t>(10 * step + salt);
  ems.lock_cycles = static_cast<std::uint64_t>(step);
  ems.fault_stream = static_cast<std::uint64_t>(3 * step + salt);
  ems.flap_stream = static_cast<std::uint64_t>(step + 1);
  ems.burst_stream = static_cast<std::uint64_t>(2 * step);
  ems.unlocked.clear();
  ems.repaired.clear();
  for (int i = 0; i <= step % 3; ++i) {
    ems.unlocked.push_back(static_cast<netsim::CarrierId>(step + salt + i * 2));
    if (i % 2 == 0) ems.repaired.push_back(static_cast<netsim::CarrierId>(salt + i));
  }
}

std::vector<LaunchState::SlotWrite> make_slots(int step) {
  std::vector<LaunchState::SlotWrite> slots;
  for (int pairwise = 0; pairwise < 2; ++pairwise) {
    const int params = pairwise ? 1 : 2;
    for (int p = 0; p < params; ++p) {
      const int entities = pairwise ? step % 4 : 2 + step;
      for (int e = 0; e < entities; ++e) {
        LaunchState::SlotWrite w;
        w.pairwise = pairwise != 0;
        w.param_pos = static_cast<std::uint32_t>(p);
        w.entity = static_cast<std::uint64_t>(e);
        w.value = step * 31 + e * 7 + p;
        slots.push_back(w);
      }
    }
  }
  return slots;
}

/// State `step` of the sequence; shard_count = 0 uses the flat layout.
LaunchState make_state(int step, int shard_count) {
  LaunchState s;
  if (shard_count == 0) {
    fill_block(0, step, s.journal, s.deferred, s.quarantine, s.breaker, s.ems);
  } else {
    s.shards.resize(static_cast<std::size_t>(shard_count));
    for (int k = 0; k < shard_count; ++k) {
      auto& block = s.shards[static_cast<std::size_t>(k)];
      fill_block(k + 1, step, block.journal, block.deferred, block.quarantine,
                 block.breaker, block.ems);
    }
  }
  s.applied_slots = make_slots(step);
  s.relearn_applied_slots = make_slots(step - step % 2);
  s.progress = {{"step", std::to_string(step)},
                {"launches", std::to_string(step * 5)},
                {"kpi", "0x1.8f4p-1"}};
  return s;
}

// A canonical text dump; string equality == full state equality, and the
// gtest diff on mismatch names the divergent field directly.
std::string dump(const LaunchState& s) {
  std::ostringstream out;
  const auto block = [&](const char* tag,
                         const std::vector<std::pair<netsim::CarrierId, std::uint64_t>>& journal,
                         const std::vector<netsim::CarrierId>& deferred,
                         const std::vector<std::pair<netsim::CarrierId, int>>& quarantine,
                         const util::CircuitBreaker::Snapshot& breaker,
                         const LaunchState::EmsState& ems) {
    out << tag << ".journal:";
    for (const auto& [c, o] : journal) out << ' ' << c << '=' << o;
    out << '\n' << tag << ".deferred:";
    for (netsim::CarrierId c : deferred) out << ' ' << c;
    out << '\n' << tag << ".quarantine:";
    for (const auto& [c, n] : quarantine) out << ' ' << c << '=' << n;
    out << '\n'
        << tag << ".breaker: " << static_cast<int>(breaker.state) << ' '
        << breaker.consecutive_failures << ' ' << breaker.cooldown_remaining << ' '
        << breaker.trips << ' ' << breaker.refusals << '\n'
        << tag << ".ems: " << ems.pushes_executed << ' ' << ems.lock_cycles << ' '
        << ems.fault_stream << ' ' << ems.flap_stream << ' ' << ems.burst_stream;
    out << " u:";
    for (netsim::CarrierId c : ems.unlocked) out << ' ' << c;
    out << " r:";
    for (netsim::CarrierId c : ems.repaired) out << ' ' << c;
    out << '\n';
  };
  block("flat", s.journal, s.deferred, s.quarantine, s.breaker, s.ems);
  for (std::size_t k = 0; k < s.shards.size(); ++k) {
    const auto& b = s.shards[k];
    block(("shard" + std::to_string(k)).c_str(), b.journal, b.deferred, b.quarantine,
          b.breaker, b.ems);
  }
  const auto slots = [&](const char* tag, const std::vector<LaunchState::SlotWrite>& list) {
    out << tag << ':';
    for (const auto& w : list) {
      out << ' ' << (w.pairwise ? 'p' : 's') << w.param_pos << '.' << w.entity << '='
          << w.value;
    }
    out << '\n';
  };
  slots("applied", s.applied_slots);
  slots("relearn", s.relearn_applied_slots);
  out << "progress:";
  for (const auto& [k, v] : s.progress) out << ' ' << k << '=' << v;
  out << '\n';
  return out.str();
}

int committed_step(const LaunchState& state) {
  const std::string* step = state.find_progress("step");
  return step ? std::stoi(*step) : -1;
}

// --- Store-level matrix ----------------------------------------------------

/// Crashes the save sequence at every FaultFs operation of its clean trace
/// and proves each crash recovers to a committed state and converges.
void run_crash_matrix(int shard_count, const std::string& tag,
                      LaunchStateStore::Options store_options) {
  constexpr int kSteps = 4;
  FaultFs& fs = FaultFs::global();
  fs.reset();

  // 1. Trace the uninterrupted sequence: the operation universe.
  fs.enable_trace(true);
  (void)fs.take_trace();
  {
    const LaunchStateStore store(temp_dir(tag + "_clean"), store_options);
    for (int t = 0; t < kSteps; ++t) store.save(make_state(t, shard_count));
  }
  const std::vector<std::string> trace = fs.take_trace();
  fs.enable_trace(false);
  ASSERT_GT(trace.size(), 20u);

  // 2. Re-run the sequence once per operation, crashing at that operation.
  for (std::size_t op = 0; op < trace.size(); ++op) {
    SCOPED_TRACE("crash at op " + std::to_string(op) + " (" + trace[op] + ")");
    const std::string dir = temp_dir(tag + "_run");
    FaultFs::FaultPlan plan;
    plan.fault = kCrashFaults[op % 4];
    plan.after_ops = op;
    plan.tear_fraction = 0.6;
    fs.install(plan);

    int crashed_during = -1;
    {
      const LaunchStateStore store(dir, store_options);
      try {
        for (int t = 0; t < kSteps; ++t) {
          crashed_during = t;
          store.save(make_state(t, shard_count));
        }
        crashed_during = -1;
      } catch (const CrashInjected&) {
        // Process death: the store object is abandoned.
      }
    }
    fs.reset();
    ASSERT_GE(crashed_during, 0) << "plan never fired";

    // 3. Restart: a fresh store over the directory, like a new process.
    const LaunchStateStore resumed(dir, store_options);
    int next = 0;
    if (resumed.exists()) {
      const LaunchState got = resumed.load();
      const int step = committed_step(got);
      ASSERT_TRUE(step == crashed_during || step == crashed_during - 1)
          << "loaded step " << step << " after crashing in save " << crashed_during;
      // Snapshot isolation: the loaded state is exactly the checkpoint of
      // one step — the one whose save crashed post-commit, or its
      // predecessor — never a blend of the two.
      EXPECT_EQ(dump(got), dump(make_state(step, shard_count)));
      next = step + 1;
    } else {
      EXPECT_EQ(crashed_during, 0) << "a committed checkpoint vanished";
    }
    for (int t = next; t < kSteps; ++t) resumed.save(make_state(t, shard_count));

    // 4. Convergence: yet another process sees the final state bit for bit.
    const LaunchStateStore verify(dir, store_options);
    EXPECT_EQ(dump(verify.load()), dump(make_state(kSteps - 1, shard_count)));
  }
}

TEST(LaunchStateCrashMatrix, EveryOperationFlatLayout) {
  run_crash_matrix(0, "flat", {});
}

TEST(LaunchStateCrashMatrix, EveryOperationShardedLayout) {
  run_crash_matrix(3, "sharded", {});
}

TEST(LaunchStateCrashMatrix, EveryOperationAggressiveCompaction) {
  // compact on every save: the snapshot/cleanup side of the journal path
  // becomes part of the operation universe at every step, not only step 0.
  LaunchStateStore::Options options;
  options.compact_min_bytes = 1;
  options.compact_factor = 0.0;
  run_crash_matrix(0, "compact", options);
}

TEST(LaunchStateCrashMatrix, FailedOperationLeavesStoreRetryable) {
  // kFailOp is the soft flavor: the operation reports an I/O error instead
  // of killing the process. save() must surface it and leave the store
  // usable — the retry repairs any uncommitted tail and commits.
  FaultFs& fs = FaultFs::global();
  fs.reset();
  int fired = 0;
  for (const std::string& point : LaunchStateStore::crash_point_catalog()) {
    SCOPED_TRACE(point);
    const std::string dir = temp_dir("failop");
    const LaunchStateStore store(dir);
    FaultFs::FaultPlan plan;
    plan.fault = FaultFs::Fault::kFailOp;
    plan.point = point;
    fs.install(plan);
    int failed_at = -1;
    for (int t = 0; t < 3; ++t) {
      try {
        store.save(make_state(t, 2));
      } catch (const std::runtime_error&) {
        failed_at = t;
        break;
      }
    }
    fs.reset();
    if (failed_at < 0) continue;  // point unreachable in journal-mode saves
    ++fired;
    for (int t = failed_at; t < 3; ++t) store.save(make_state(t, 2));
    const LaunchStateStore verify(dir);
    EXPECT_EQ(dump(verify.load()), dump(make_state(2, 2)));
  }
  // Every point on the journal save path must have been exercised.
  EXPECT_GE(fired, 8);
}

TEST(LaunchStateCrashMatrix, CrashDuringRecoveryTruncateIsRecoverable) {
  // A crashed append leaves a torn tail; the NEXT load truncates it at
  // crash point recover.truncate. Crashing inside that repair must leave a
  // directory a third process still recovers from.
  FaultFs& fs = FaultFs::global();
  fs.reset();
  const std::string dir = temp_dir("recover_truncate");
  {
    const LaunchStateStore store(dir);
    store.save(make_state(0, 0));
    store.save(make_state(1, 0));
    FaultFs::FaultPlan plan;
    plan.fault = FaultFs::Fault::kTornTail;
    plan.point = "checkpoint.append";
    fs.install(plan);
    EXPECT_THROW(store.save(make_state(2, 0)), CrashInjected);
    fs.reset();
  }
  for (const FaultFs::Fault fault :
       {FaultFs::Fault::kCrashBefore, FaultFs::Fault::kCrashAfter}) {
    FaultFs::FaultPlan plan;
    plan.fault = fault;
    plan.point = "recover.truncate";
    fs.install(plan);
    const LaunchStateStore store(dir);
    EXPECT_THROW(store.load(), CrashInjected);
    fs.reset();
  }
  const LaunchStateStore store(dir);
  EXPECT_EQ(dump(store.load()), dump(make_state(1, 0)));
}

// --- Replay-level matrix ---------------------------------------------------

namespace replay_matrix {

using namespace smartlaunch;

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(13, 2, 12);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthModel ground_truth{topo, schema, catalog};
  config::ConfigAssignment assignment = ground_truth.assign();

  ReplayOptions options(int shards) const {
    ReplayOptions o;
    o.days = 10;
    o.launches_per_day = 4;
    o.relearn_every_days = 7;
    o.robust = true;
    o.ems.flaky_timeout_prob = 0.15;
    o.ems.faults.burst_every = 30;
    o.ems.faults.burst_length = 3;
    o.ems.faults.burst_timeout_prob = 1.0;
    o.shards = shards;
    return o;
  }

  ReplayReport run(const ReplayOptions& options) const {
    OperationReplay replay(topo, schema, catalog, ground_truth, assignment, options);
    return replay.run();
  }
};

void expect_reports_identical(const ReplayReport& a, const ReplayReport& b) {
  EXPECT_EQ(a.totals.launches, b.totals.launches);
  EXPECT_EQ(a.totals.change_recommended, b.totals.change_recommended);
  EXPECT_EQ(a.totals.implemented, b.totals.implemented);
  EXPECT_EQ(a.totals.parameters_changed, b.totals.parameters_changed);
  EXPECT_EQ(a.robust.recovered, b.robust.recovered);
  EXPECT_EQ(a.robust.drained, b.robust.drained);
  EXPECT_EQ(a.robust.still_queued, b.robust.still_queued);
  EXPECT_EQ(a.robust.retries, b.robust.retries);
  EXPECT_EQ(a.robust.breaker_trips, b.robust.breaker_trips);
  EXPECT_EQ(a.engine_relearns, b.engine_relearns);
  // Bit-identical, not approximately equal (doubles persist as hexfloats).
  EXPECT_EQ(a.initial_network_kpi, b.initial_network_kpi);
  EXPECT_EQ(a.final_network_kpi, b.final_network_kpi);
  ASSERT_EQ(a.weeks.size(), b.weeks.size());
  for (std::size_t w = 0; w < a.weeks.size(); ++w) {
    EXPECT_EQ(a.weeks[w].launches, b.weeks[w].launches) << w;
    EXPECT_EQ(a.weeks[w].implemented, b.weeks[w].implemented) << w;
    EXPECT_EQ(a.weeks[w].fallouts, b.weeks[w].fallouts) << w;
    EXPECT_EQ(a.weeks[w].parameters_changed, b.weeks[w].parameters_changed) << w;
    EXPECT_EQ(a.weeks[w].mean_launched_kpi, b.weeks[w].mean_launched_kpi) << w;
  }
}

/// Runs the window under `plan`, resumes after the injected crash (if it
/// fired) and returns the final report.
ReplayReport crash_and_resume(const Fixture& f, ReplayOptions options,
                              const FaultFs::FaultPlan& plan, bool* fired) {
  FaultFs& fs = FaultFs::global();
  fs.install(plan);
  try {
    const ReplayReport report = f.run(options);
    *fired = !fs.armed();  // a post-final-checkpoint crash cannot happen here
    fs.reset();
    return report;
  } catch (const CrashInjected&) {
    *fired = true;
  }
  fs.reset();
  options.resume = true;
  return f.run(options);
}

TEST(ReplayCrashMatrix, EveryCatalogPointConvergesSharded) {
  const Fixture f;
  const ReplayReport baseline = f.run(f.options(2));
  const auto& catalog = LaunchStateStore::crash_point_catalog();
  int fired_points = 0;
  std::string dark_points;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const std::string& point = catalog[i];
    SCOPED_TRACE(point);
    ReplayOptions options = f.options(2);
    options.state_dir = temp_dir("replay_point_" + std::to_string(i));
    // Compaction pre-empts the append for a stream, so aggressive
    // compaction (which makes the snapshot/cleanup side reachable on every
    // checkpoint) would starve the append points; flip it per target.
    if (point.find("snapshot") != std::string::npos || point == "checkpoint.cleanup" ||
        point == "checkpoint.predir_fsync") {
      options.checkpoint.compact_min_bytes = 1;
      options.checkpoint.compact_factor = 0.0;
    }
    FaultFs::FaultPlan plan;
    plan.fault = kCrashFaults[i % 4];
    plan.point = point;
    plan.after_ops = (i % 2) * 5;  // first or sixth visit to the point
    bool fired = false;
    const ReplayReport report = crash_and_resume(f, options, plan, &fired);
    expect_reports_identical(report, baseline);
    if (fired) {
      ++fired_points;
    } else {
      dark_points += " " + point;
    }
    std::filesystem::remove_all(options.state_dir);
  }
  // Most of the catalog must actually fire during a sharded window.
  EXPECT_GE(fired_points, 10) << "dark points:" << dark_points;
}

TEST(ReplayCrashMatrix, SeededCrashSweepConvergesSerial) {
  const Fixture f;
  const ReplayReport baseline = f.run(f.options(1));
  int fired_runs = 0;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ReplayOptions options = f.options(1);
    options.state_dir = temp_dir("replay_seed_" + std::to_string(seed));
    FaultFs::FaultPlan plan = FaultFs::seeded_plan(seed, 600);
    bool fired = false;
    const ReplayReport report = crash_and_resume(f, options, plan, &fired);
    expect_reports_identical(report, baseline);
    if (fired) ++fired_runs;
    std::filesystem::remove_all(options.state_dir);
  }
  EXPECT_GE(fired_runs, 3);
}

}  // namespace replay_matrix
}  // namespace
}  // namespace auric
