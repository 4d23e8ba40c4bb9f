#include "harness/serve_workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "harness/digest.h"
#include "harness/http_client.h"
#include "harness/stats.h"
#include "obs/http_listener.h"
#include "util/rng.h"

namespace perfbench {

using auric::config::kUnset;
using auric::smartlaunch::LaunchController;

namespace {

constexpr std::size_t kProbeTargets = 48;

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string printf_number(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

void print_step(const StepStats& s) {
  say("step %7.0f req/s  %.2fs  scheduled %5zu sent %5zu failed %zu  p50 %.3f ms  p99 %.3f ms"
      "  late p99 %.3f ms  generator lag p99 %.3f ms%s%s",
      s.rate, s.duration_s, s.scheduled, s.sent, s.failed, s.p50_ms, s.p99_ms, s.late_p99_ms,
      s.generator_lag_p99_ms, s.backlog ? "  BACKLOG" : "",
      s.generator_valid ? "" : "  INVALID (generator fell behind)");
}

}  // namespace

std::vector<ServeTarget> draw_targets(const World& world, std::uint64_t seed, std::size_t count,
                                      const std::vector<int>& pool) {
  auric::util::Rng rng(seed);
  const auto carriers = static_cast<std::int64_t>(pool.empty() ? world.topology.carrier_count()
                                                               : pool.size());
  std::vector<ServeTarget> targets;
  targets.reserve(count);
  while (targets.size() < count) {
    const double u = rng.uniform();
    ServeTarget t;
    const auto pick = static_cast<std::size_t>(rng.uniform_int(0, carriers - 1));
    t.carrier = pool.empty() ? static_cast<int>(pick) : pool[pick];
    if (u < 0.7) {
      t.kind = ServeTarget::kRecommend;
      t.path = "/recommend?carrier=" + std::to_string(t.carrier);
    } else if (u < 0.8) {
      const auto& hood = world.topology.neighborhood(t.carrier);
      if (hood.empty()) continue;  // redraw: a pair needs an X2 neighbor
      t.kind = ServeTarget::kRecommendPair;
      t.neighbor = hood[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hood.size()) - 1))];
      t.path = "/recommend?carrier=" + std::to_string(t.carrier) +
               "&neighbor=" + std::to_string(t.neighbor);
    } else {
      t.kind = ServeTarget::kDiff;
      t.path = "/diff?carrier=" + std::to_string(t.carrier);
    }
    targets.push_back(std::move(t));
  }
  return targets;
}

ServeStack::ServeStack(const World& w, std::unique_ptr<auric::core::AuricEngine> engine_in)
    : world(&w), engine(engine_in.get()), rulebook(*w.ground_truth, w.catalog) {
  // `auric serve`'s defaults: 8 connection threads, 2 workers, admission
  // high-water 64, 4 bulkheads x 8, 1 s default deadline, vendor-fault seed
  // = topology seed.
  auric::serve::ServeOptions options;
  options.http.threads = 8;
  options.seed = w.seed;
  daemon = std::make_unique<auric::serve::ServeDaemon>(w.topology, w.schema, w.catalog,
                                                       w.assignment, *w.ground_truth, options);
  // The daemon's first bundle adopts the engine learned (and timed) by the
  // caller instead of learning a second one; any later relearn would find
  // the builder empty and keep serving last-good.
  auto holder = std::make_shared<std::unique_ptr<auric::core::AuricEngine>>(std::move(engine_in));
  daemon->set_engine_builder([holder] { return std::move(*holder); });
  daemon->start();
  controller = std::make_unique<LaunchController>(
      *engine, rulebook, w.assignment, auric::smartlaunch::VendorFaultOptions{},
      auric::smartlaunch::PushPolicy{}, w.seed);
}

ServeStack::~ServeStack() = default;

std::string ServeStack::expected_body(const ServeTarget& target) const {
  const auric::config::ParamCatalog& catalog = world->catalog;
  std::string body = "{\"carrier\":" + std::to_string(target.carrier) + ",\"generation\":1";
  bool first = true;
  if (target.kind == ServeTarget::kDiff) {
    std::vector<LaunchController::PlannedChange> vendor;
    const auto changes = controller->plan_changes_detailed(target.carrier, &vendor);
    body += ",\"slots\":" + std::to_string(vendor.size()) + ",\"changes\":[";
    for (const auto& change : changes) {
      const auric::config::ParamDef& def = catalog.at(change.slot.param);
      if (!first) body += ',';
      first = false;
      body += "{\"param\":\"" + json_escape(def.name) + "\",\"mo_path\":\"" +
              json_escape(change.slot.mo_path) + "\"";
      if (change.vendor_value != kUnset) {
        body += ",\"vendor\":" + printf_number("%g", def.domain.value(change.vendor_value));
      }
      if (change.new_value != kUnset) {
        body += ",\"new\":" + printf_number("%g", def.domain.value(change.new_value));
      }
      body += "}";
    }
    return body + "]}";
  }
  const auto recs = target.kind == ServeTarget::kRecommendPair
                        ? engine->recommend_pairwise(target.carrier, target.neighbor)
                        : engine->recommend_singular(target.carrier);
  body += ",\"recommendations\":[";
  for (const auric::core::Recommendation& rec : recs) {
    const auric::config::ParamDef& def = catalog.at(rec.param);
    if (!first) body += ',';
    first = false;
    body += "{\"param\":\"" + json_escape(def.name) + "\"";
    if (rec.value != kUnset) {
      body += ",\"value\":" + printf_number("%g", def.domain.value(rec.value));
    }
    body += std::string(",\"source\":\"") + auric::core::recommendation_source_name(rec.source) +
            "\",\"votes\":" + std::to_string(rec.votes) +
            ",\"group_size\":" + std::to_string(rec.group_size) +
            ",\"support\":" + printf_number("%.4f", rec.support) +
            ",\"margin\":" + printf_number("%.4f", rec.margin) + "}";
  }
  return body + "]}";
}

void ServeStack::direct_call(const ServeTarget& target) const {
  if (target.kind == ServeTarget::kDiff) {
    std::vector<LaunchController::PlannedChange> vendor;
    controller->plan_changes_detailed(target.carrier, &vendor);
  } else if (target.kind == ServeTarget::kRecommendPair) {
    engine->recommend_pairwise(target.carrier, target.neighbor);
  } else {
    engine->recommend_singular(target.carrier);
  }
}

StepStats run_step(const ServeStack& stack, double rate, double seconds, std::uint64_t seed,
                   double generator_ceiling, double abort_late_s) {
  const std::vector<double> due = poisson_arrivals(rate, seconds, seed);
  const std::vector<ServeTarget> mix =
      draw_targets(*stack.world, stream_seed(seed, 1), due.size(), stack.traffic_pool);
  std::vector<std::string> paths;
  paths.reserve(mix.size());
  for (const ServeTarget& t : mix) paths.push_back(t.path);
  double generator_cpu = 0.0;
  const double cpu_before = process_cpu_s();
  const std::vector<RequestRecord> records =
      send_open_loop(stack.port(), kServeConnections, due, paths, abort_late_s, &generator_cpu);
  const double daemon_cpu = process_cpu_s() - cpu_before - generator_cpu;
  StepStats step = summarize_step(rate, seconds, records, generator_ceiling);
  step.cpu_ms_per_request = step.sent > 0 ? daemon_cpu * 1e3 / static_cast<double>(step.sent) : 0.0;
  return step;
}

double calibrate_generator() {
  auric::obs::HttpListenerOptions options;
  options.threads = 8;
  options.name = "generator calibration";
  auric::obs::HttpListener listener(
      [](const auric::obs::HttpRequest&) {
        return auric::obs::HttpResponse{200, "text/plain", "ok\n", {}};
      },
      options);
  listener.start();
  // Everything due at once: the generator runs flat out.
  const std::size_t n = 4000;
  const std::vector<RequestRecord> records = send_open_loop(
      listener.port(), kServeConnections, std::vector<double>(n, 0.0),
      std::vector<std::string>(n, "/"), std::numeric_limits<double>::infinity());
  listener.stop();
  double first = std::numeric_limits<double>::infinity();
  double last = 0.0;
  for (const RequestRecord& r : records) {
    first = std::min(first, r.sent);
    last = std::max(last, r.done);
  }
  return last > first ? static_cast<double>(n) / (last - first) : 0.0;
}

std::string check_probes(const ServeStack& stack, WorkloadResult& result) {
  Digest digest;
  std::size_t mismatches = 0;
  for (const ServeTarget& t :
       draw_targets(*stack.world, stream_seed(kAnchorSeed, 1000), kProbeTargets)) {
    const HttpReply reply = http_get(stack.port(), t.path);
    if (reply.status != 200 || reply.body != stack.expected_body(t)) ++mismatches;
    digest.add(t.path);
    digest.add(std::to_string(reply.status));
    digest.add(reply.body);
  }
  result.attempted += kProbeTargets;
  if (mismatches > 0) {
    result.fail_check(std::to_string(mismatches) + " of " + std::to_string(kProbeTargets) +
                      " probe bodies differ from the directly rendered answers");
  }
  return digest.hex();
}

void count_step(const StepStats& step, WorkloadResult& result) {
  result.attempted += step.scheduled;
  result.failed += step.failed + (step.scheduled - step.sent);
}

void count_ladder_step(const StepStats& step, WorkloadResult& result) {
  result.attempted += step.sent;
  result.failed += step.failed;
}

double report_p99(const StepStats& step) {
  const Tail tail = supported_tail(step.latency_ms);
  if (step.p99_windows > 0) {
    say("serve.p99_ms  %.4f ms (median of %zu windows' p99, each n >= 1000); whole phase p%g "
        "%.4f ms (n=%zu)",
        step.windowed_p99_ms, step.p99_windows, tail.percentile, tail.value, tail.samples);
    return step.windowed_p99_ms;
  }
  say("serve.p99_ms  no window holds 1,000 samples; reporting the whole phase's p%g %.4f ms "
      "(n=%zu)",
      tail.percentile, tail.value, tail.samples);
  return tail.value;
}

bool is_serve_workload(const std::string& workload) {
  return workload == "serve" || workload == "serve-hot";
}

std::vector<int> traffic_pool(const World& world, const std::string& workload,
                              std::uint64_t seed) {
  if (workload != "serve-hot") return {};
  const std::vector<auric::netsim::CarrierId> hot =
      seeded_sample(world.topology.carrier_count(), stream_seed(seed, 3), kHotCarriers);
  return std::vector<int>(hot.begin(), hot.end());
}

WorkloadResult run_serve(const RunConfig& config) {
  WorkloadResult result;
  std::vector<double> setups;
  std::unique_ptr<World> world;
  std::unique_ptr<ServeStack> stack;
  for (int rep = 0; rep < std::max(1, config.setup_reps); ++rep) {
    stack.reset();
    world.reset();
    const Clock::time_point start = Clock::now();
    world = build_world(config.world);
    stack = std::make_unique<ServeStack>(*world, learn_engine(*world, world->assignment));
    // Warm-up: a fixed count of requests, one after another, so its time is
    // the daemon's, not the pace of a schedule.
    for (const ServeTarget& t : draw_targets(*world, stream_seed(kAnchorSeed, 99), 256)) {
      http_get(stack->port(), t.path);
    }
    setups.push_back(seconds_since(start));
  }
  print_world_stamp(*world, config);
  say("setup: median %.3f s over %zu set-ups (world, engine learn, daemon start, warm-up)",
      median(setups), setups.size());

  const double ceiling = calibrate_generator();
  say("generator ceiling: %.0f req/s against a trivial handler (%d connections)", ceiling,
      kServeConnections);

  stack->traffic_pool = traffic_pool(*world, config.workload, config.seed);
  const StepStats fixed = run_step(*stack, kFixedRate, std::max(1.2, config.seconds),
                                   stream_seed(config.seed, 1), ceiling, kFixedAbortLateS);
  print_step(fixed);
  count_step(fixed, result);
  result.add_digest("probes", check_probes(*stack, result));

  say("serve.p50_ms  %.4f ms at %.0f req/s offered (n=%zu, timed from scheduled send)",
      fixed.p50_ms, kFixedRate, fixed.latency_ms.size());
  report_p99(fixed);
  say("serve.cpu_ms_per_request %.4f ms (daemon threads; the generator's own CPU excluded)",
      fixed.cpu_ms_per_request);
  say("gen.late_p99_ms %.4f ms at the fixed rate", fixed.late_p99_ms);
  say("fail_frac %.6f (%llu of %llu)",
      result.attempted > 0 ? static_cast<double>(result.failed) / result.attempted : 0.0,
      static_cast<unsigned long long>(result.failed),
      static_cast<unsigned long long>(result.attempted));

  result.add("setup_s", median(setups), "s");
  result.add("rss_peak_mb", peak_rss_mb(), "MB");
  result.add("cpu_ms_per_op", fixed.cpu_ms_per_request, "ms");
  return result;
}

Ladder climb_ladder(const ServeStack& stack, const StepStats& fixed, double budget_s,
                    std::uint64_t seed, double generator_ceiling) {
  Ladder ladder;
  const Clock::time_point start = Clock::now();
  const auto time_left = [&] { return budget_s - seconds_since(start); };
  const auto step_seconds = [](double rate) { return std::max(0.6, 1500.0 / rate); };
  const auto meets = [](const StepStats& s) { return select_max_qps({s}, kP99LimitMs) > 0.0; };
  std::uint64_t stream = 2;
  const auto climb = [&](double rate) {
    ladder.steps.push_back(run_step(stack, rate, step_seconds(rate), stream_seed(seed, stream++),
                                    generator_ceiling, kLadderAbortLateS));
    print_step(ladder.steps.back());
    return meets(ladder.steps.back());
  };
  // A failed step is retried once, so one scheduling hiccup does not decide
  // the limit. x1.25 steps bracket it; bisection then narrows the bracket
  // to 2.5%.
  const auto passes = [&](double rate) { return climb(rate) || climb(rate); };
  double pass = meets(fixed) || passes(kFixedRate) ? kFixedRate : 0.0;
  double fail = 0.0;
  for (double rate = kFixedRate * 1.25; pass > 0.0 && time_left() > step_seconds(rate);
       rate *= 1.25) {
    if (!passes(rate)) {
      fail = rate;
      break;
    }
    pass = rate;
  }
  while (fail > 0.0 && fail / pass > 1.025) {
    const double rate = std::sqrt(pass * fail);
    if (time_left() < 2.0 * step_seconds(rate)) break;
    if (passes(rate)) {
      pass = rate;
    } else {
      fail = rate;
    }
  }
  std::vector<StepStats> all = ladder.steps;
  all.push_back(fixed);
  ladder.max_qps = select_max_qps(all, kP99LimitMs);
  say("serve.max_qps %.0f req/s (p99 <= %.0f ms, no growing backlog; %zu ladder steps)",
      ladder.max_qps, kP99LimitMs, ladder.steps.size() + 1);
  return ladder;
}

}  // namespace perfbench
