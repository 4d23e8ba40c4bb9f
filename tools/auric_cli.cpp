// auric — command-line front end for the library.
//
//   auric generate  --out DIR [--seed N] [--markets N] [--scale N]
//       Generate a synthetic network + configuration snapshot and save it
//       as a CSV inventory directory (see io/inventory.h for the schema;
//       operators can produce the same files from their own systems).
//
//   auric inspect   --data DIR
//       Inventory summary and per-parameter variability of a snapshot.
//
//   auric evaluate  --data DIR [--global] [--market N]
//       Leave-one-out accuracy of the (local by default) CF learner.
//
//   auric recommend --data DIR --carrier N [--neighbor M]
//       Recommendations with evidence for one carrier, as the SmartLaunch
//       controller would consume them.
//
//   auric rules     --data DIR [--min-support F] [--min-carriers N]
//       Synthesize a human-readable rule-book from the learned peer groups
//       (the paper's "automatically learn the rules" pitch, inverted for
//       review by engineers).
//
//   auric replay    [--data DIR] [--days N] [--robust] [--state-dir DIR]
//                   [--shards N] [--weekly-out FILE] [--state-out DIR]
//                   [--relearn-mode full|incremental] [--relearn-threads N]
//       Replay the paper's two-month operation window day by day (synthetic
//       network by default); weekly Table-5 counters plus rollback and
//       quarantine columns in robust mode. --shards N partitions the EMS by
//       market and runs each day's launches shard-parallel; --weekly-out
//       writes the weekly table as CSV (bit-exact KPI) for CI diffing;
//       --state-out saves the evolved snapshot as an inventory directory
//       (the `auric modeldiff` input). --relearn-mode incremental applies the
//       days' slot deltas to the engine in place instead of rebuilding every
//       table (byte-identical weekly output at the default drift threshold);
//       --relearn-threads fans the per-parameter work out (also byte-exact).
//       With --serve-metrics the live plane additionally exposes /modelz:
//       the ModelWatch model-quality document.
//       SIGTERM/SIGINT drain gracefully: the current day finishes, a final
//       sealed checkpoint commits, and --resume continues bit-identically.
//
//   auric serve     [--data DIR] [--port N] [--http-threads N] [--queue-high-water N]
//                   [--relearn-mode full|incremental]
//       Long-lived recommendation daemon: /recommend /diff /healthz /metrics
//       over loopback HTTP, with admission control, per-request deadlines,
//       per-market bulkheads, hot engine swap (POST /relearn, optionally
//       ?mode=full|incremental) and graceful drain on SIGTERM/SIGINT or
//       POST /quit. --rules evaluates an alert-rules file into the daemon's
//       /healthz ("alerting" while a rule fires); --serve-metrics is refused,
//       since the daemon answers the live plane's endpoints on --port.
//
//   auric loadgen   --port N [--clients N] [--requests N] [--fault-prob F]
//       Seeded closed-loop load generator against a serve daemon; exits
//       nonzero if any well-formed request got no terminal response.
//
//   auric tracestats --in FILE [--root NAME] [--top N] [--out FILE]
//       Fold a span JSONL file (--trace-out, /tracez) into per-span-name
//       total/self time and per-trace critical paths, as CSV. Exits nonzero
//       when the input holds no spans — an empty CSV would read as "no slow
//       paths" in CI when the real story is "tracing was never wired".
//
//   auric modeldiff --old DIR --new DIR [--sample N] [--seed S]
//                   [--max-flip-rate F] [--json]
//       The relearn shadow-audit, offline: replay a seeded carrier sample
//       through engines learned from two inventory snapshots (e.g. the
//       `auric generate` output vs. a replay --state-out) and report the
//       disagreement surface. Exits nonzero when the flip rate exceeds
//       --max-flip-rate.
//
// Every subcommand additionally accepts the live-plane flags
// (--serve-metrics[=PORT] --sample-interval-ms --rules FILE --series-out):
// --rules and --series-out sample the registry on their own, and with
// --serve-metrics the process also exposes /metrics /healthz /varz /tracez
// /logz on loopback WHILE it runs.
#include <cstdio>
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "config/catalog.h"
#include "config/ground_truth.h"
#include "core/engine.h"
#include "core/engine_diff.h"
#include "core/model_watch.h"
#include "core/rulebook_synthesis.h"
#include "eval/cf_eval.h"
#include "eval/variability.h"
#include "io/fault_fs.h"
#include "io/inventory.h"
#include "netsim/attributes.h"
#include "netsim/generator.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/trace_stats.h"
#include "serve/daemon.h"
#include "serve/loadgen.h"
#include "smartlaunch/replay.h"
#include "util/args.h"
#include "util/drain.h"
#include "util/obs_flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace auric::cli {
namespace {

struct Snapshot {
  netsim::Topology topology;
  netsim::AttributeSchema schema;
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::ConfigAssignment assignment;
};

Snapshot load(const std::string& dir) {
  Snapshot snap;
  snap.topology = io::load_topology(dir);
  snap.schema = netsim::AttributeSchema::standard(snap.topology);
  snap.assignment = io::load_assignment(snap.topology, snap.catalog, dir);
  return snap;
}

int cmd_generate(util::Args& args) {
  const std::string out = args.get_string("out", "", "output inventory directory (required)");
  netsim::TopologyParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "random seed"));
  params.num_markets = static_cast<int>(args.get_int("markets", 28, "number of markets"));
  params.base_enodebs_per_market =
      static_cast<int>(args.get_int("scale", 55, "base eNodeBs per market"));
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (out.empty()) throw std::invalid_argument("generate: --out is required");

  const netsim::Topology topology = netsim::generate_topology(params);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topology);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthParams gt;
  gt.seed = params.seed + 6;
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topology, schema, catalog, gt).assign();
  io::save_topology(topology, out);
  io::save_assignment(topology, catalog, assignment, out);
  std::printf("wrote %zu carriers, %zu X2 links, %zu configured values to %s\n",
              topology.carrier_count(), topology.edge_count() / 2,
              assignment.total_configured(), out.c_str());
  return 0;
}

int cmd_inspect(util::Args& args) {
  const std::string dir = args.get_string("data", "", "inventory directory (required)");
  const int top = static_cast<int>(args.get_int("top", 10, "parameters to list"));
  if (args.help_requested()) return 0;
  args.check_unknown();
  const Snapshot snap = load(dir);

  std::printf("inventory: %zu markets, %zu eNodeBs, %zu carriers, %zu X2 links\n",
              snap.topology.markets.size(), snap.topology.enodebs.size(),
              snap.topology.carrier_count(), snap.topology.edge_count() / 2);
  std::printf("configuration: %s values across %zu parameters\n\n",
              util::with_commas(static_cast<long long>(snap.assignment.total_configured()))
                  .c_str(),
              snap.catalog.size());

  auto variability = eval::analyze_variability(snap.topology, snap.catalog, snap.assignment);
  std::sort(variability.begin(), variability.end(),
            [](const auto& a, const auto& b) { return a.distinct_overall > b.distinct_overall; });
  util::Table table({"parameter", "distinct values", "configured", "skewness"});
  for (int i = 0; i < top && i < static_cast<int>(variability.size()); ++i) {
    const auto& var = variability[static_cast<std::size_t>(i)];
    table.add_row({snap.catalog.at(var.param).name, std::to_string(var.distinct_overall),
                   util::with_commas(static_cast<long long>(var.configured_values)),
                   util::format_fixed(var.skewness, 2)});
  }
  table.print();
  return 0;
}

int cmd_evaluate(util::Args& args) {
  const std::string dir = args.get_string("data", "", "inventory directory (required)");
  const bool global = args.get_bool("global", false, "use the global learner (no proximity)");
  const std::int64_t market = args.get_int("market", -1, "restrict to one market (-1 = all)");
  if (args.help_requested()) return 0;
  args.check_unknown();
  const Snapshot snap = load(dir);

  core::AuricOptions options;
  options.use_proximity = !global;
  if (market >= 0) options.market = static_cast<netsim::MarketId>(market);
  const auto results = eval::evaluate_all(
      core::AuricEngine(snap.topology, snap.schema, snap.catalog, snap.assignment, options));
  std::size_t rows = 0;
  std::size_t fallbacks = 0;
  for (const auto& r : results) {
    rows += r.rows;
    fallbacks += r.fallback_default;
  }
  std::printf("%s learner: %.2f%% leave-one-out accuracy over %s values"
              " (%.2f%% decided by the rule-book default)\n",
              global ? "global" : "local", 100.0 * eval::overall_accuracy(results),
              util::with_commas(static_cast<long long>(rows)).c_str(),
              rows > 0 ? 100.0 * static_cast<double>(fallbacks) / static_cast<double>(rows)
                       : 0.0);
  return 0;
}

int cmd_recommend(util::Args& args) {
  const std::string dir = args.get_string("data", "", "inventory directory (required)");
  const auto carrier =
      static_cast<netsim::CarrierId>(args.get_int("carrier", -1, "carrier id (required)"));
  const auto neighbor = static_cast<netsim::CarrierId>(
      args.get_int("neighbor", -1, "neighbor carrier id (pair-wise parameters)"));
  if (args.help_requested()) return 0;
  args.check_unknown();
  const Snapshot snap = load(dir);
  if (carrier < 0 || static_cast<std::size_t>(carrier) >= snap.topology.carrier_count()) {
    throw std::invalid_argument("recommend: --carrier must name a carrier in the inventory");
  }

  const core::AuricEngine engine(snap.topology, snap.schema, snap.catalog, snap.assignment);
  if (neighbor == netsim::kInvalidCarrier) {
    for (const core::Recommendation& rec : engine.recommend_singular(carrier)) {
      std::printf("%s\n", engine.explain(rec, carrier).c_str());
    }
    std::printf("\n(pass --neighbor to get the pair-wise relation parameters; X2 neighbors of"
                " %d:", carrier);
    for (netsim::CarrierId n : snap.topology.neighborhood(carrier)) std::printf(" %d", n);
    std::printf(")\n");
  } else {
    for (const core::Recommendation& rec : engine.recommend_pairwise(carrier, neighbor)) {
      std::printf("%s\n", engine.explain(rec, carrier, neighbor).c_str());
    }
  }
  return 0;
}

int cmd_rules(util::Args& args) {
  const std::string dir = args.get_string("data", "", "inventory directory (required)");
  const double min_support =
      args.get_double("min-support", 0.75, "minimum vote support for a rule");
  const std::int64_t min_carriers =
      args.get_int("min-carriers", 8, "minimum carriers behind a rule");
  if (args.help_requested()) return 0;
  args.check_unknown();
  const Snapshot snap = load(dir);

  const core::AuricEngine engine(snap.topology, snap.schema, snap.catalog, snap.assignment);
  core::RulebookSynthesisOptions options;
  options.min_support = min_support;
  options.min_carriers = static_cast<std::int32_t>(min_carriers);
  const core::SynthesizedRulebook book = core::synthesize_rulebook(engine, options);
  std::printf("synthesized %zu non-default rules from the learned peer groups:\n",
              book.rules.size());
  std::fputs(book.render(snap.schema, snap.catalog).c_str(), stdout);
  return 0;
}

int cmd_replay(util::Args& args, util::LivePlane& live) {
  const std::string dir =
      args.get_string("data", "", "inventory directory (default: synthetic network)");
  netsim::TopologyParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "random seed (synthetic)"));
  params.num_markets =
      static_cast<int>(args.get_int("markets", 28, "number of markets (synthetic)"));
  params.base_enodebs_per_market =
      static_cast<int>(args.get_int("scale", 55, "base eNodeBs per market (synthetic)"));

  smartlaunch::ReplayOptions options;
  options.days = static_cast<int>(args.get_int("days", 60, "operation window in days"));
  options.launches_per_day =
      static_cast<int>(args.get_int("launches-per-day", 21, "new carriers per day"));
  options.relearn_every_days =
      static_cast<int>(args.get_int("relearn-days", 7, "engine re-learn cadence in days"));
  const std::string relearn_mode = args.get_string(
      "relearn-mode", "full",
      "relearn path: full rebuilds every table; incremental applies the days' slot deltas "
      "in place (byte-identical weekly output at the default drift threshold)");
  options.relearn_threads = static_cast<int>(args.get_int(
      "relearn-threads", 1,
      "per-parameter fan-out width inside a relearn (byte-identical at any width)"));
  options.full_rebuild_every = static_cast<int>(args.get_int(
      "full-rebuild-every", options.full_rebuild_every,
      "incremental mode: every Nth relearn is a full rebuild anyway (0 = never)"));
  options.relearn_drift_threshold = args.get_double(
      "relearn-drift-threshold", 0.0,
      "incremental mode: re-test dependencies only for parameters whose changed-row "
      "fraction reaches this, or whose ModelWatch drift fires (<= 0 = re-test every "
      "touched parameter, which keeps the output exact)");
  options.robust = args.get_bool(
      "robust", true, "push through the fault-tolerant path (chunk/retry/breaker/KPI gate)");
  options.rollback.enabled = args.get_bool(
      "rollback", true, "KPI-gate robust pushes (roll back + quarantine on breach)");
  options.state_dir = args.get_string(
      "state-dir", "", "checkpoint replay state into this directory after every launch");
  options.resume = args.get_bool("resume", false, "restart from the checkpoint in --state-dir");
  options.stop_after_launches = static_cast<int>(
      args.get_int("stop-after-launches", 0, "checkpoint and exit after N launches (0 = all)"));
  options.shards = static_cast<int>(args.get_int(
      "shards", 1, "EMS shards; the launch stream runs shard-parallel (1 = legacy serial)"));
  options.ems.flaky_timeout_prob =
      args.get_double("flaky-timeout-prob", options.ems.flaky_timeout_prob,
                      "per-push transient EMS timeout probability (0 disables fault injection)");
  options.checkpoint.fsync = args.get_bool(
      "checkpoint-fsync", true, "fsync checkpoint files + directory at the commit point");
  const std::int64_t faultfs_seed = args.get_int(
      "faultfs-seed", -1,
      "arm a seeded FaultFs crash plan: the process dies mid-checkpoint at a "
      "seed-chosen operation with exit code 86 (-1 = off)");
  const std::int64_t faultfs_ops = args.get_int(
      "faultfs-ops-hint", 512, "operation-index universe the --faultfs-seed crash site is "
      "drawn from (past-the-end seeds complete the run uninterrupted)");
  const std::string weekly_out = args.get_string(
      "weekly-out", "", "also write the weekly summary table to this file as CSV");
  options.model_watch = args.get_bool(
      "model-watch", true,
      "attach per-parameter model telemetry, KPI-gate joins and drift gauges (metrics only; "
      "the weekly output is byte-identical either way)");
  const std::string state_out = args.get_string(
      "state-out", "",
      "save the evolved snapshot (topology + end-of-window configuration) to this inventory "
      "directory — the `auric modeldiff` input");
  if (args.help_requested()) return 0;
  args.check_unknown();

  if (relearn_mode == "incremental") {
    options.relearn_mode = core::RelearnMode::kIncremental;
  } else if (relearn_mode != "full") {
    std::fprintf(stderr, "auric replay: --relearn-mode must be full or incremental\n");
    return 2;
  }

  if (faultfs_seed >= 0) {
    io::FaultFs::FaultPlan plan =
        io::FaultFs::seeded_plan(static_cast<std::uint64_t>(faultfs_seed),
                                 static_cast<std::uint64_t>(std::max<std::int64_t>(1, faultfs_ops)));
    plan.exit_process = true;
    io::FaultFs::global().install(plan);
  }

  Snapshot snap;
  if (dir.empty()) {
    snap.topology = netsim::generate_topology(params);
    snap.schema = netsim::AttributeSchema::standard(snap.topology);
  } else {
    snap = load(dir);
  }
  config::GroundTruthParams gt;
  gt.seed = params.seed + 6;  // matches `auric generate`, so --data round-trips
  const config::GroundTruthModel ground_truth(snap.topology, snap.schema, snap.catalog, gt);
  if (dir.empty()) snap.assignment = ground_truth.assign();

  // SIGTERM/SIGINT drain: finish the in-progress day, seal a final
  // checkpoint, and exit 0 so --resume continues bit-identically.
  util::install_drain_signal_handlers();

  smartlaunch::OperationReplay replay(snap.topology, snap.schema, snap.catalog, ground_truth,
                                      snap.assignment, options);

  // /modelz on the live plane: the watch is owned by the replay (constructed
  // just above), so the endpoint registers here and MUST unregister before
  // the replay goes out of scope — the guard below outlives every return.
  struct ModelzGuard {
    util::LivePlane& live;
    ~ModelzGuard() { live.set_modelz(nullptr); }
  } modelz_guard{live};
  if (const core::ModelWatch* watch = replay.model_watch()) {
    live.set_modelz([watch] { return watch->modelz_json(); });
  }

  const smartlaunch::ReplayReport report = replay.run();

  if (report.drained) {
    std::printf("replay: drain requested; stopped after a completed day%s\n",
                options.state_dir.empty() ? "" : " with a sealed checkpoint (use --resume)");
  }

  util::Table table({"week", "launches", "flagged", "implemented", "fallouts", "rolled back",
                     "quarantined", "params changed", "mean launch KPI"});
  for (const smartlaunch::WeeklySummary& week : report.weeks) {
    table.add_row({std::to_string(week.week), std::to_string(week.launches),
                   std::to_string(week.change_recommended), std::to_string(week.implemented),
                   std::to_string(week.fallouts), std::to_string(week.rolled_back),
                   std::to_string(week.quarantined), std::to_string(week.parameters_changed),
                   util::format_fixed(week.mean_launched_kpi, 3)});
  }
  table.print();

  if (!weekly_out.empty()) {
    // Machine-readable weekly summary for CI determinism checks: a fault-free
    // (--flaky-timeout-prob 0) run must produce byte-identical CSVs at any
    // --shards value. KPI is emitted as a hexfloat so the comparison is
    // bit-exact, not print-rounded.
    std::FILE* out = std::fopen(weekly_out.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "auric replay: cannot write %s\n", weekly_out.c_str());
      return 1;
    }
    std::fputs(
        "week,launches,flagged,implemented,fallouts,rolled_back,quarantined,params_changed,"
        "mean_launch_kpi\n",
        out);
    for (const smartlaunch::WeeklySummary& week : report.weeks) {
      std::fprintf(out, "%d,%zu,%zu,%zu,%zu,%zu,%zu,%zu,%a\n", week.week, week.launches,
                   week.change_recommended, week.implemented, week.fallouts, week.rolled_back,
                   week.quarantined, week.parameters_changed, week.mean_launched_kpi);
    }
    std::fclose(out);
  }

  const auto& totals = report.totals;
  std::printf("\n%d days: %zu launches, %zu flagged, %zu implemented, %zu fall-outs, %zu"
              " parameters changed;\nnetwork mean KPI %.3f -> %.3f, %d engine re-learns\n",
              options.days, totals.launches, totals.change_recommended, totals.implemented,
              totals.fallout_unlocked + totals.fallout_timeout, totals.parameters_changed,
              report.initial_network_kpi, report.final_network_kpi, report.engine_relearns);
  if (options.robust) {
    const smartlaunch::RobustReplayTotals& r = report.robust;
    std::printf("robust layer: %zu recovered, %zu retries, %d breaker trips, %zu deferred"
                " (%zu drained, %zu queued);\nKPI gate: %zu rolled back, %zu rollback pushes,"
                " %zu reattempts, %zu quarantined\n",
                r.recovered, r.retries, r.breaker_trips, r.queued_degraded, r.drained,
                r.still_queued, r.rolled_back, r.rollbacks, r.reattempts, r.quarantined);
  }

  if (replay.model_watch() != nullptr) {
    const core::ModelWatch& watch = *replay.model_watch();
    std::printf("model watch: %d drift days, PSI %.4f, %zu parameters flagged\n",
                watch.days_rolled(), watch.psi(), watch.drifted_params());
  }

  if (!state_out.empty()) {
    io::save_topology(snap.topology, state_out);
    io::save_assignment(snap.topology, snap.catalog, replay.network_state(), state_out);
    std::printf("evolved snapshot saved to %s\n", state_out.c_str());
  }
  return 0;
}

int cmd_serve(util::Args& args, util::LivePlane& live) {
  const std::string dir =
      args.get_string("data", "", "inventory directory (default: synthetic network)");
  netsim::TopologyParams params;
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "random seed (synthetic)"));
  params.num_markets =
      static_cast<int>(args.get_int("markets", 28, "number of markets (synthetic)"));
  params.base_enodebs_per_market =
      static_cast<int>(args.get_int("scale", 55, "base eNodeBs per market (synthetic)"));

  serve::ServeOptions options;
  options.http.port = static_cast<std::uint16_t>(
      args.get_int("port", 0, "listen port (0 = ephemeral; printed at startup)"));
  options.http.threads = static_cast<int>(args.get_int(
      "http-threads", 8, "connection threads (the data-path concurrency ceiling)"));
  options.queue_high_water = static_cast<std::size_t>(args.get_int(
      "queue-high-water", 64, "admission high-water mark; requests past it are shed with 503"));
  options.bulkheads =
      static_cast<int>(args.get_int("bulkheads", 4, "per-market-shard bulkhead lanes"));
  options.bulkhead_width = static_cast<int>(
      args.get_int("bulkhead-width", 8, "concurrent requests per bulkhead lane"));
  options.default_deadline_ms = static_cast<int>(args.get_int(
      "default-deadline-ms", 1000, "deadline when the client sends no X-Auric-Deadline-Ms"));
  options.max_deadline_ms = static_cast<int>(
      args.get_int("max-deadline-ms", 10000, "clamp applied to client deadlines"));
  options.work_delay_ms = static_cast<int>(args.get_int(
      "work-delay-ms", 0, "artificial per-request delay (overload/soak capacity shaping)"));
  options.audit_sample = static_cast<std::size_t>(args.get_int(
      "audit-sample", 48, "carriers shadow-audited through old and new engines on each relearn "
      "(0 = all)"));
  options.max_flip_rate = args.get_double(
      "max-flip-rate", 1.0,
      "refuse a relearn whose audited flip rate exceeds this (1.0 = guard off)");
  const std::string relearn_mode = args.get_string(
      "relearn-mode", "full",
      "default POST /relearn path: full rebuilds from scratch; incremental clones the "
      "serving engine and delta-updates it (per-request override: /relearn?mode=...)");
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (live.options().serve) {
    throw std::invalid_argument(
        "--serve-metrics: the daemon answers /metrics /varz /tracez /logz /profilez on --port");
  }
  options.seed = params.seed;
  if (relearn_mode == "incremental") {
    options.relearn_mode = core::RelearnMode::kIncremental;
  } else if (relearn_mode != "full") {
    std::fprintf(stderr, "auric serve: --relearn-mode must be full or incremental\n");
    return 2;
  }

  Snapshot snap;
  if (dir.empty()) {
    snap.topology = netsim::generate_topology(params);
    snap.schema = netsim::AttributeSchema::standard(snap.topology);
  } else {
    snap = load(dir);
  }
  config::GroundTruthParams gt;
  gt.seed = params.seed + 6;  // matches `auric generate`, so --data round-trips
  const config::GroundTruthModel ground_truth(snap.topology, snap.schema, snap.catalog, gt);
  if (dir.empty()) snap.assignment = ground_truth.assign();

  serve::ServeDaemon daemon(snap.topology, snap.schema, snap.catalog, snap.assignment,
                            ground_truth, options);

  // --rules fold into the daemon's /healthz ("alerting" while one fires).
  // The plane starts sampling only once the daemon is up, so the rules never
  // judge the registry of a daemon that has not bound yet.
  daemon.set_rule_engine(live.rules());
  util::install_drain_signal_handlers();
  daemon.start();  // learns the initial engine, then binds
  live.start();
  std::printf("auric serve: listening on %s:%u (engine generation %llu, %zu carriers)\n",
              options.http.bind_address.c_str(), daemon.port(),
              static_cast<unsigned long long>(daemon.generation()),
              snap.topology.carrier_count());
  std::fflush(stdout);

  while (!util::drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("auric serve: drain requested; finishing in-flight requests\n");
  std::fflush(stdout);
  // Rules stop judging once the drain begins: auric_serve_up reads 0 from
  // here on by design, and a long drain must not page.
  if (live.sampler() != nullptr) live.sampler()->stop();
  daemon.drain();
  std::printf("auric serve: drained cleanly (%llu requests served)\n",
              static_cast<unsigned long long>(daemon.requests_served()));
  return 0;
}

int cmd_loadgen(util::Args& args) {
  serve::LoadGenOptions options;
  options.port =
      static_cast<std::uint16_t>(args.get_int("port", 0, "serve daemon port (required)"));
  options.clients =
      static_cast<int>(args.get_int("clients", 4, "concurrent closed-loop clients"));
  options.requests_per_client =
      static_cast<int>(args.get_int("requests", 50, "requests per client"));
  options.deadline_ms = static_cast<int>(
      args.get_int("deadline-ms", 1000, "X-Auric-Deadline-Ms sent with data requests"));
  options.fault_prob = args.get_double(
      "fault-prob", 0.0, "probability a request misbehaves on purpose (slam/garbage/trickle)");
  options.carrier_universe = static_cast<int>(
      args.get_int("carrier-universe", 100, "carriers are drawn from [0, N)"));
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 1, "request-mix seed"));
  options.slowest = static_cast<int>(
      args.get_int("slowest", 5, "report the N slowest requests with their trace ids"));
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (options.port == 0) throw std::invalid_argument("loadgen: --port is required");

  const serve::LoadGenStats stats = serve::run_loadgen(options);
  std::printf("loadgen: %llu sent | %llu ok, %llu shed, %llu expired, %llu client-error,"
              " %llu server-error, %llu refused, %llu no-response | %llu faults injected\n",
              static_cast<unsigned long long>(stats.sent),
              static_cast<unsigned long long>(stats.ok),
              static_cast<unsigned long long>(stats.shed),
              static_cast<unsigned long long>(stats.expired),
              static_cast<unsigned long long>(stats.client_error),
              static_cast<unsigned long long>(stats.server_error),
              static_cast<unsigned long long>(stats.refused),
              static_cast<unsigned long long>(stats.no_response),
              static_cast<unsigned long long>(stats.faults_injected));
  std::printf("loadgen: ok latency p50 %.2f ms, p99 %.2f ms, max %.2f ms\n", stats.p50_ms,
              stats.p99_ms, stats.max_ms);
  for (const serve::OutcomeLatency& o : stats.by_outcome) {
    std::printf("loadgen: outcome %-12s n=%-5llu p50 %.2f ms, p99 %.2f ms, max %.2f ms\n",
                o.outcome.c_str(), static_cast<unsigned long long>(o.count), o.p50_ms, o.p99_ms,
                o.max_ms);
  }
  for (const serve::SlowRequest& s : stats.slowest) {
    std::printf("loadgen: slow %8.2f ms  %-12s %s trace=%s\n", s.latency_ms, s.outcome.c_str(),
                s.target.c_str(), s.trace_id.empty() ? "-" : s.trace_id.c_str());
  }
  if (stats.lost() != 0) {
    std::fprintf(stderr,
                 "loadgen: %llu well-formed requests got NO terminal response — the daemon "
                 "dropped admitted work\n",
                 static_cast<unsigned long long>(stats.lost()));
    return 1;
  }
  return 0;
}

int cmd_tracestats(util::Args& args) {
  const std::string in = args.get_string("in", "", "span JSONL file (--trace-out or /tracez)");
  obs::TraceStatsOptions options;
  options.root = args.get_string(
      "root", "", "report critical paths only for roots with this span name (e.g. replay.day)");
  options.top =
      static_cast<std::size_t>(args.get_int("top", 20, "rows per section (0 = all)"));
  const std::string out = args.get_string("out", "", "write the CSV here instead of stdout");
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (in.empty()) throw std::invalid_argument("tracestats: --in is required");

  std::ifstream file(in, std::ios::binary);
  if (!file) throw std::runtime_error("tracestats: cannot read " + in);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string jsonl = buffer.str();

  const obs::TraceStatsReport report = obs::compute_trace_stats(jsonl, options);
  if (report.spans == 0) {
    // An empty CSV would read as "no slow paths" downstream when the real
    // story is "tracing was never wired" (wrong file, disabled recorder).
    std::fprintf(stderr, "tracestats: no spans in %s (%llu non-span lines skipped)\n",
                 in.c_str(), static_cast<unsigned long long>(report.skipped_lines));
    return 1;
  }
  const std::string csv = obs::trace_stats_csv(report);
  if (out.empty()) {
    std::fputs(csv.c_str(), stdout);
  } else {
    std::ofstream sink(out, std::ios::binary);
    if (!sink) throw std::runtime_error("tracestats: cannot write " + out);
    sink << csv;
  }
  std::fprintf(stderr, "tracestats: %llu spans, %llu non-span lines skipped\n",
               static_cast<unsigned long long>(report.spans),
               static_cast<unsigned long long>(report.skipped_lines));
  return 0;
}

int cmd_modeldiff(util::Args& args) {
  const std::string old_dir =
      args.get_string("old", "", "baseline inventory directory (required)");
  const std::string new_dir =
      args.get_string("new", "", "candidate inventory directory (required)");
  const std::size_t sample =
      static_cast<std::size_t>(args.get_int("sample", 0, "carriers to audit (0 = all)"));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2024, "carrier-sample seed"));
  const double max_flip_rate = args.get_double(
      "max-flip-rate", 1.0, "exit nonzero when the flip rate exceeds this (1.0 = report only)");
  const bool json = args.get_bool("json", false, "emit the report as JSON instead of a table");
  if (args.help_requested()) return 0;
  args.check_unknown();
  if (old_dir.empty() || new_dir.empty()) {
    throw std::invalid_argument("modeldiff: --old and --new are required");
  }

  const Snapshot prev = load(old_dir);
  const Snapshot next = load(new_dir);
  const core::AuricEngine prev_engine(prev.topology, prev.schema, prev.catalog,
                                      prev.assignment);
  const core::AuricEngine next_engine(next.topology, next.schema, next.catalog,
                                      next.assignment);
  const core::EngineDiffReport report =
      core::diff_engines(prev_engine, next_engine, sample, seed);
  if (json) {
    std::printf("%s\n", report.json().c_str());
  } else {
    std::fputs(report.text().c_str(), stdout);
  }
  if (report.flip_rate > max_flip_rate) {
    std::fprintf(stderr, "modeldiff: flip rate %.4f exceeds --max-flip-rate %.4f\n",
                 report.flip_rate, max_flip_rate);
    return 1;
  }
  return 0;
}

int usage() {
  std::fputs(
      "usage: auric "
      "<generate|inspect|evaluate|recommend|rules|replay|serve|loadgen|tracestats|modeldiff>"
      " [flags]\n"
      "run a subcommand with --help for its flags\n"
      "every subcommand accepts --metrics-out PATH (.prom/.csv/.json), --trace-out PATH\n"
      "(JSONL spans), and the live-plane flags --serve-metrics[=PORT]\n"
      "--sample-interval-ms N --rules FILE --series-out PATH\n",
      stderr);
  return 2;
}

}  // namespace
}  // namespace auric::cli

int main(int argc, char** argv) {
  using namespace auric;
  if (argc < 2) return cli::usage();
  const std::string command = argv[1];
  try {
    util::Args args(argc - 1, argv + 1);
    // Observability flags are shared by every subcommand: declare them
    // before dispatch so check_unknown() inside the commands accepts them.
    const std::string metrics_out = args.get_string(
        "metrics-out", "", "write a metrics snapshot here on exit (.prom/.csv/.json)");
    const util::LivePlaneOptions live_options = util::declare_live_plane_flags(args);
    util::LivePlane live(args.help_requested() ? util::LivePlaneOptions{} : live_options);
    // serve starts the plane itself, once its daemon is up.
    if (command != "serve") live.start();
    int rc = 0;
    if (command == "generate") rc = cli::cmd_generate(args);
    else if (command == "inspect") rc = cli::cmd_inspect(args);
    else if (command == "evaluate") rc = cli::cmd_evaluate(args);
    else if (command == "recommend") rc = cli::cmd_recommend(args);
    else if (command == "rules") rc = cli::cmd_rules(args);
    else if (command == "replay") rc = cli::cmd_replay(args, live);
    else if (command == "serve") rc = cli::cmd_serve(args, live);
    else if (command == "loadgen") rc = cli::cmd_loadgen(args);
    else if (command == "tracestats") rc = cli::cmd_tracestats(args);
    else if (command == "modeldiff") rc = cli::cmd_modeldiff(args);
    else return cli::usage();
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
    } else if (!metrics_out.empty()) {
      obs::write_metrics_file(obs::MetricsRegistry::global(), metrics_out);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "auric %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
