#include "harness/probes.h"

#include <atomic>
#include <cmath>
#include <limits>

#include "config/rulebook.h"
#include "core/engine_diff.h"
#include "core/model_watch.h"
#include "harness/audit_workload.h"
#include "harness/http_client.h"
#include "harness/registry_delta.h"
#include "harness/replay_workload.h"
#include "harness/stats.h"
#include "smartlaunch/controller.h"

namespace perfbench {

using auric::core::AuricEngine;
using auric::netsim::CarrierId;
using auric::netsim::kInvalidCarrier;

namespace {

/// Probe results are folded in here so the timed calls stay observable.
std::atomic<std::size_t> g_sink{0};

template <typename F>
double time_us(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return seconds_since(start) * 1e6;
}

}  // namespace

CoreLayers probe_core(const World& world, AuricEngine& engine, std::uint64_t seed,
                      std::size_t carriers) {
  CoreLayers out;
  const std::vector<CarrierId> ids =
      seeded_sample(world.topology.carrier_count(), stream_seed(seed, 10), carriers);
  const auric::core::ModelWatch* attached = engine.watch();
  auric::core::ModelWatch watch(world.catalog);

  // recommend_singular without and with a watch, alternating which runs
  // first so neither side always meets the warmer cache.
  std::vector<double> plain_us;
  std::vector<double> watch_us;
  std::size_t sources[3] = {0, 0, 0};
  std::size_t decisions = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::vector<auric::core::Recommendation> recs;
    double plain = 0.0;
    double watched = 0.0;
    const auto run_plain = [&] {
      engine.set_watch(nullptr);
      plain = time_us([&] { recs = engine.recommend_singular(ids[i]); });
    };
    const auto run_watched = [&] {
      engine.set_watch(&watch);
      watched = time_us([&] { g_sink += engine.recommend_singular(ids[i]).size(); });
    };
    if (i % 2 == 0) {
      run_plain();
      run_watched();
    } else {
      run_watched();
      run_plain();
    }
    plain_us.push_back(plain);
    watch_us.push_back(watched - plain);
    for (const auto& rec : recs) ++sources[static_cast<std::size_t>(rec.source)];
    decisions += recs.size();
  }
  engine.set_watch(attached);
  out.recommend_us = median(plain_us);
  out.watch_record_us = median(watch_us);
  const double total = static_cast<double>(std::max<std::size_t>(1, decisions));
  out.local_frac = static_cast<double>(sources[0]) / total;
  out.global_frac = static_cast<double>(sources[1]) / total;
  out.default_frac = static_cast<double>(sources[2]) / total;

  // Key build and group lookup at every backoff level of every singular
  // parameter, and the local scan over the carrier's 1-hop X2 set.
  const double threshold = engine.options().vote_threshold;
  const auto& singular = world.catalog.singular_ids();
  std::vector<const auric::core::VotingModel*> models;
  for (const auto p : singular) {
    const auric::core::BackoffVoting& voting = engine.voting(p);
    for (int level = 0; level < voting.level_count(); ++level) {
      models.push_back(&voting.model_at(level));
    }
  }
  std::vector<double> key_ns;
  std::vector<double> vote_ns;
  std::vector<double> local_us;
  std::vector<auric::core::GroupKey> keys;
  keys.reserve(models.size());
  const double per_model = static_cast<double>(models.size());
  for (std::size_t i = 0; i < std::min<std::size_t>(ids.size(), 400); ++i) {
    const CarrierId c = ids[i];
    keys.clear();
    key_ns.push_back(time_us([&] {
                       for (const auto* m : models) keys.push_back(m->key_for(c, kInvalidCarrier));
                     }) *
                     1e3 / per_model);
    vote_ns.push_back(time_us([&] {
                        for (std::size_t k = 0; k < models.size(); ++k) {
                          if (const auto v = models[k]->vote(keys[k], threshold)) {
                            g_sink += static_cast<std::size_t>(v->count);
                          }
                        }
                      }) *
                      1e3 / per_model);
    const auto& hood = world.topology.neighborhood(c);
    local_us.push_back(time_us([&] {
                         for (const auto p : singular) {
                           if (const auto d = engine.voting(p).local(engine.view(p), hood, c,
                                                                     kInvalidCarrier, -1,
                                                                     threshold)) {
                             g_sink += static_cast<std::size_t>(d->level);
                           }
                         }
                       }) /
                       static_cast<double>(singular.size()));
  }
  out.key_build_ns = median(key_ns);
  out.group_lookup_ns = median(vote_ns);
  out.local_scan_us = median(local_us);

  for (std::size_t p = 0; p < world.catalog.size(); ++p) {
    const auric::core::BackoffVoting& voting =
        engine.voting(static_cast<auric::config::ParamId>(p));
    for (int level = 0; level < voting.level_count(); ++level) {
      out.groups += static_cast<double>(voting.model_at(level).group_count());
    }
  }
  return out;
}

double probe_plan_us(const World& world, const AuricEngine& engine, std::uint64_t seed,
                     std::size_t carriers) {
  const auric::config::Rulebook rulebook(*world.ground_truth, world.catalog);
  const auric::smartlaunch::LaunchController controller(
      engine, rulebook, world.assignment, auric::smartlaunch::VendorFaultOptions{},
      auric::smartlaunch::PushPolicy{}, world.seed);
  std::vector<double> us;
  for (const CarrierId c :
       seeded_sample(world.topology.carrier_count(), stream_seed(seed, 11), carriers)) {
    us.push_back(time_us([&] {
      std::vector<auric::smartlaunch::LaunchController::PlannedChange> vendor;
      g_sink += controller.plan_changes_detailed(c, &vendor).size();
    }));
  }
  return median(us);
}

ServePaths probe_serve_paths(const ServeStack& stack, const std::vector<ServeTarget>& targets,
                             int rounds) {
  std::vector<double> handle;
  std::vector<double> direct;
  std::vector<double> dispatch;
  std::vector<double> overhead;
  for (int round = 0; round < rounds; ++round) {
    for (const ServeTarget& t : targets) {
      auric::obs::HttpRequest request;
      request.method = "GET";
      request.target = t.path;
      double h = 0.0;
      double d = 0.0;
      double s = 0.0;
      const auto run_handle = [&] {
        h = time_us([&] { g_sink += stack.daemon->handle(request).body.size(); });
      };
      const auto run_direct = [&] { d = time_us([&] { stack.direct_call(t); }); };
      const auto run_socket = [&] {
        s = time_us([&] { g_sink += http_get(stack.port(), t.path).body.size(); });
      };
      // Rotate the order each round so no path always runs on a warm cache.
      if (round % 3 == 0) {
        run_handle();
        run_direct();
        run_socket();
      } else if (round % 3 == 1) {
        run_direct();
        run_socket();
        run_handle();
      } else {
        run_socket();
        run_handle();
        run_direct();
      }
      handle.push_back(h);
      direct.push_back(d);
      dispatch.push_back(h - d);
      overhead.push_back(s - h);
    }
  }
  ServePaths out;
  out.samples = handle.size();
  out.handle_p50_us = median(handle);
  out.handle_p99_us = quantile_bp(handle, 9900);
  out.direct_p50_us = median(direct);
  out.dispatch_us = median(dispatch);
  out.http_overhead_us = median(overhead);
  return out;
}

WorkloadResult run_traced(const RunConfig& config) {
  WorkloadResult result;
  const std::string& workload = config.workload;
  const std::unique_ptr<World> world = build_world(config.world);
  LearnTiming learn;
  const std::unique_ptr<AuricEngine> engine = learn_engine(*world, world->assignment, &learn);
  print_world_stamp(*world, config);

  // Serve plane: a fixed-rate phase (the workload's own on `serve`, a short
  // probe elsewhere), then paired socket / handle() / direct timings.
  const double ceiling = calibrate_generator();
  StepStats fixed;
  ServePaths paths;
  MetricTotals shed;
  MetricTotals expired;
  MetricTotals timeouts;
  MetricTotals pool_wait;
  {
    const auto stack = std::make_unique<ServeStack>(*world, std::make_unique<AuricEngine>(*engine));
    const bool serving = is_serve_workload(workload);
    const double seconds = serving ? std::max(1.2, 0.4 * config.seconds) : 1.2;
    stack->traffic_pool = traffic_pool(*world, workload, config.seed);
    const RegistrySnapshot before = RegistrySnapshot::take();
    fixed = run_step(*stack, kFixedRate, seconds, stream_seed(config.seed, 1), ceiling,
                     kFixedAbortLateS);
    const RegistrySnapshot after = RegistrySnapshot::take();
    shed = delta(before, after, "auric_serve_shed_total");
    expired = delta(before, after, "auric_serve_deadline_expired_total");
    timeouts = delta(before, after, "auric_serve_timeouts_total");
    pool_wait = delta(before, after, "auric_pool_submit_wait_ms");
    count_step(fixed, result);
    if (serving) {
      for (const StepStats& s :
           climb_ladder(*stack, fixed, 0.6 * config.seconds, config.seed, ceiling).steps) {
        count_ladder_step(s, result);
      }
    }
    paths = probe_serve_paths(
        *stack, draw_targets(*world, stream_seed(config.seed, 2000), 400, stack->traffic_pool));
    const std::string digest = check_probes(*stack, result);
    if (serving) result.add_digest("probes", digest);
  }

  const CoreLayers core = probe_core(*world, *engine, config.seed);
  const double plan_us = probe_plan_us(*world, *engine, config.seed);

  double audit_ms = 0.0;
  std::size_t audit_slots = 0;
  if (workload == "audit") {
    const std::unique_ptr<AuricEngine> next = learn_churned(*world, config.seed);
    const Clock::time_point start = Clock::now();
    const auric::core::EngineDiffReport report =
        auric::core::diff_engines(*engine, *next, 0, config.seed);
    audit_ms = seconds_since(start) * 1e3;
    audit_slots = report.slots_compared;
    result.attempted += report.slots_compared;
    check_audit(*world, *engine, *next, report, config.seed, result);
    result.add_digest(seeded_name("report", config.seed), report_digest(report));
    result.add_digest("recommendations", recommendations_digest(*world, *engine));
  }

  // One replay window: the workload itself on `replay`, the probe of the
  // relearn / checkpoint / push layers elsewhere.
  const RegistrySnapshot before = RegistrySnapshot::take();
  const ReplayWindow window = run_replay_window(
      *world,
      replay_options(config.seed, state_dir_for(config.scratch_dir, "traced"),
                     auric::core::RelearnMode::kIncremental),
      /*keep_state=*/true);
  const RegistrySnapshot after = RegistrySnapshot::take();
  result.attempted += window.report.totals.launches;
  check_replay(window, *world, result);
  if (workload == "replay") add_window_digests(*world, config, window.summary, result);
  const double relearn_s = delta(before, after, "auric_engine_relearn_seconds").sum;
  const MetricTotals incremental = delta(before, after, "auric_engine_incremental_relearn_seconds");
  const double saves = delta(before, after, "auric_checkpoint_writes_total").value;
  const double checkpoint_s = delta(before, after, "auric_checkpoint_write_seconds").sum;

  // The same relearn done once through the public API: from the window's
  // initial state straight to its end state.
  AuricEngine catchup(*engine);
  auric::core::IncrementalRelearnStats stats;
  const double catchup_ms =
      time_us([&] { catchup.incremental_relearn(window.end_state, {}, &stats); }) / 1e3;

  const auto per = [](double sum, double count) {
    return count > 0.0 ? sum / count : 0.0;
  };
  result.add("netsim.generate_s", world->generate_s, "s");
  result.add("config.assign_s", world->assign_s, "s");
  result.add("core.learn_s", learn.wall_s, "s");
  result.add("core.learn.param_view_s", learn.param_view_s, "s");
  result.add("core.learn.dependency_s", learn.dependency_s, "s");
  result.add("core.learn.voting_s", learn.voting_s, "s");
  result.add("core.recommend_us", core.recommend_us, "us");
  result.add("core.key_build_ns", core.key_build_ns, "ns");
  result.add("core.group_lookup_ns", core.group_lookup_ns, "ns");
  result.add("core.local_scan_us", core.local_scan_us, "us");
  result.add("core.watch_record_us", core.watch_record_us, "us");
  result.add("core.source.local_frac", core.local_frac, "ratio");
  result.add("core.source.global_frac", core.global_frac, "ratio");
  result.add("core.source.default_frac", core.default_frac, "ratio");
  result.add("core.groups", core.groups, "count");
  result.add("core.relearn_incremental_ms",
             per(incremental.sum, static_cast<double>(incremental.count)) * 1e3, "ms");
  result.add("core.relearn_catchup_ms", catchup_ms, "ms");
  result.add("core.relearn.params_touched", static_cast<double>(stats.params_touched), "count");
  result.add("core.relearn.params_retested", static_cast<double>(stats.params_retested), "count");
  result.add("core.relearn.params_rebuilt", static_cast<double>(stats.params_rebuilt), "count");
  result.add("core.relearn.rows_changed",
             static_cast<double>(stats.rows_added + stats.rows_erased + stats.rows_updated),
             "count");
  result.add("smartlaunch.plan_us", plan_us, "us");
  result.add("smartlaunch.relearn_s", relearn_s, "s");
  result.add("smartlaunch.pushes", delta(before, after, "auric_push_attempts_total").value,
             "count");
  result.add("smartlaunch.push_retries", delta(before, after, "auric_push_retries_total").value,
             "count");
  result.add("smartlaunch.rollbacks", delta(before, after, "auric_rollbacks_total").value, "count");
  result.add("io.checkpoint_saves", saves, "count");
  result.add("io.checkpoint_bytes_per_save",
             per(delta(before, after, "auric_checkpoint_bytes_total").value, saves), "bytes");
  result.add("io.checkpoint_write_s", checkpoint_s, "s");
  result.add("io.checkpoint_compactions",
             delta(before, after, "auric_checkpoint_compactions_total").value, "count");
  result.add("serve.p50_ms", fixed.p50_ms, "ms");
  result.add("serve.p99_ms", report_p99(fixed), "ms");
  result.add("serve.handle_us.p50", paths.handle_p50_us, "us");
  result.add("serve.handle_us.p99", paths.handle_p99_us, "us");
  result.add("serve.dispatch_us", paths.dispatch_us, "us");
  result.add("serve.shed", shed.value, "count");
  result.add("serve.expired", expired.value, "count");
  result.add("serve.timeouts", timeouts.value, "count");
  result.add("util.pool_submit_wait_ms", per(pool_wait.sum, static_cast<double>(pool_wait.count)),
             "ms");
  result.add("obs.http.overhead_us", paths.http_overhead_us, "us");
  result.add("gen.late_p99_ms", fixed.late_p99_ms, "ms");
  result.add("gen.ceiling_qps", ceiling, "1/s");

  say("serve paths: %zu paired samples; fixed phase %zu requests at %.0f req/s, p50 %.4f ms",
      paths.samples, fixed.sent, kFixedRate, fixed.p50_ms);
  if (is_serve_workload(workload)) {
    print_ledger("serve.p50_ms (traced fixed-rate phase)", fixed.p50_ms,
                 {{"obs.http.overhead_us", paths.http_overhead_us / 1e3},
                  {"serve.dispatch_us", paths.dispatch_us / 1e3},
                  {"engine/plan call (direct p50)", paths.direct_p50_us / 1e3}},
                 "ms");
  } else if (workload == "audit") {
    const double carriers = static_cast<double>(audit_slots) /
                            static_cast<double>(world->catalog.singular_ids().size());
    print_ledger("audit wall (one full-breadth diff_engines)", audit_ms,
                 {{"2N x core.recommend_us", 2.0 * carriers * core.recommend_us / 1e3}}, "ms");
  } else {
    print_ledger("replay.window_s", window.wall_s,
                 {{"smartlaunch.relearn_s (1 full + 3 incremental)", relearn_s},
                  {"io.checkpoint_write_s", checkpoint_s},
                  {"plans (launches x smartlaunch.plan_us)",
                   static_cast<double>(window.report.totals.launches) * plan_us / 1e6}},
                 "s");
  }
  return result;
}

}  // namespace perfbench
