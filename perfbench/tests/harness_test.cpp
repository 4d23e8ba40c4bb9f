// Tests for the benchmark harness's own pure pieces: the percentile rule,
// open-loop timing from the due time, max_qps selection with backlog
// detection, and digest stability across two in-process runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numeric>
#include <thread>

#include "harness/audit_workload.h"
#include "harness/open_loop.h"
#include "harness/replay_workload.h"
#include "harness/serve_workload.h"
#include "harness/stats.h"
#include "obs/http_listener.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, ReportsHighestPercentileWithTenSamplesBeyond) {
  Tail t = supported_tail(one_to(1000));
  EXPECT_TRUE(t.supported);
  EXPECT_DOUBLE_EQ(t.percentile, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);

  t = supported_tail(one_to(999));  // p99 leaves only 9 beyond: fall to p95
  EXPECT_DOUBLE_EQ(t.percentile, 95.0);
  EXPECT_DOUBLE_EQ(t.value, 950.0);

  t = supported_tail(one_to(10000));
  EXPECT_DOUBLE_EQ(t.percentile, 99.9);
  EXPECT_DOUBLE_EQ(t.value, 9990.0);

  t = supported_tail(one_to(20));
  EXPECT_DOUBLE_EQ(t.percentile, 50.0);
  EXPECT_DOUBLE_EQ(t.value, 10.0);

  t = supported_tail({3.0, 1.0, 2.0});  // no percentile supported: the maximum
  EXPECT_FALSE(t.supported);
  EXPECT_DOUBLE_EQ(t.percentile, 100.0);
  EXPECT_DOUBLE_EQ(t.value, 3.0);
  EXPECT_EQ(t.samples, 3u);
}

TEST(PercentileRule, MedianAndBeyondCounts) {
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(samples_beyond(1000, 9900), 10u);
  EXPECT_EQ(samples_beyond(0, 9900), 0u);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  RequestRecord r;
  r.due = 1.0;
  r.picked = 1.2;  // every connection was busy until then
  r.sent = 1.2;
  r.done = 1.25;
  r.status = 200;
  EXPECT_NEAR(latency_from_due_ms(r), 250.0, 1e-9);
  EXPECT_NEAR(late_ms(r), 200.0, 1e-9);
  EXPECT_NEAR(generator_lag_ms(r), 0.0, 1e-9);  // the daemon's backlog, not the generator's
}

TEST(OpenLoop, AStallIsChargedToEveryRequestDueDuringIt) {
  std::atomic<int> calls{0};
  auric::obs::HttpListenerOptions options;
  options.threads = 1;
  auric::obs::HttpListener listener(
      [&calls](const auric::obs::HttpRequest&) {
        if (calls.fetch_add(1) == 0) std::this_thread::sleep_for(std::chrono::milliseconds(200));
        return auric::obs::HttpResponse{200, "text/plain", "ok", {}};
      },
      options);
  listener.start();
  const std::vector<double> due = {0.0, 0.05, 0.10, 0.15};
  const std::vector<RequestRecord> records =
      send_open_loop(listener.port(), 1, due, std::vector<std::string>(due.size(), "/"));
  listener.stop();
  for (std::size_t i = 1; i < records.size(); ++i) {
    ASSERT_EQ(records[i].status, 200);
    // Due during the stall: the wait counts, although the request itself,
    // once sent, was served at once.
    EXPECT_GE(latency_from_due_ms(records[i]), (0.2 - due[i]) * 1e3 - 1.0);
    EXPECT_LT((records[i].done - records[i].sent) * 1e3, 100.0);
  }
}

StepStats step(double rate, double p99, bool backlog = false, bool valid = true,
               std::size_t failed = 0) {
  StepStats s;
  s.rate = rate;
  s.p99_ms = p99;
  s.backlog = backlog;
  s.generator_valid = valid;
  s.failed = failed;
  return s;
}

TEST(Ladder, MaxQpsIsTheHighestValidPassingStep) {
  const std::vector<StepStats> steps = {
      step(1000, 1.0), step(1250, 2.0), step(1300, 4.9, false, /*valid=*/false),
      step(1400, 4.0, /*backlog=*/true), step(1500, 6.0), step(1600, 3.0, false, true, 1),
      step(1700, std::numeric_limits<double>::quiet_NaN())};
  EXPECT_DOUBLE_EQ(select_max_qps(steps, 5.0), 1250.0);
  EXPECT_DOUBLE_EQ(select_max_qps({step(1000, 7.0)}, 5.0), 0.0);
}

std::vector<RequestRecord> records_with_late(const std::vector<double>& late_ms_values) {
  std::vector<RequestRecord> records;
  for (std::size_t i = 0; i < late_ms_values.size(); ++i) {
    RequestRecord r;
    r.due = 0.001 * static_cast<double>(i);
    r.picked = r.due;
    r.sent = r.due + late_ms_values[i] / 1e3;
    r.done = r.sent + 0.0005;
    r.status = 200;
    records.push_back(r);
  }
  return records;
}

TEST(Ladder, BacklogDetection) {
  EXPECT_FALSE(growing_backlog(records_with_late(std::vector<double>(200, 0.1))));

  std::vector<double> rising(200);
  for (std::size_t i = 0; i < rising.size(); ++i) rising[i] = 0.1 * static_cast<double>(i);
  EXPECT_TRUE(growing_backlog(records_with_late(rising)));

  std::vector<double> one_spike(200, 0.1);
  one_spike[190] = 40.0;  // a hiccup, not a queue
  EXPECT_FALSE(growing_backlog(records_with_late(one_spike)));

  std::vector<RequestRecord> abandoned = records_with_late(std::vector<double>(50, 0.1));
  abandoned.back().status = -1;  // never sent
  EXPECT_TRUE(growing_backlog(abandoned));
}

TEST(Ladder, UnsentRequestsCountAsAttemptedAndFailed) {
  std::vector<RequestRecord> records = records_with_late(std::vector<double>(40, 0.1));
  for (std::size_t i = 30; i < records.size(); ++i) records[i].status = -1;  // abandoned
  records[3].status = 503;
  const StepStats s = summarize_step(1000.0, 0.04, records, 0.0);
  WorkloadResult result;
  count_step(s, result);
  EXPECT_EQ(result.attempted, 40u);
  EXPECT_EQ(result.failed, 11u);

  // A ladder step above capacity is abandoned by design: only what it sent
  // counts, and only a sent request without a 200 failed.
  WorkloadResult ladder;
  count_ladder_step(s, ladder);
  EXPECT_EQ(ladder.attempted, 30u);
  EXPECT_EQ(ladder.failed, 1u);
}

TEST(PercentileRule, AThinStepReportsItsSupportedTail) {
  const StepStats s = summarize_step(1000.0, 0.2, records_with_late(std::vector<double>(200, 0.1)),
                                     0.0);
  EXPECT_EQ(s.p99_windows, 0u);
  const double p99 = report_p99(s);
  EXPECT_TRUE(std::isfinite(p99));
  EXPECT_DOUBLE_EQ(p99, supported_tail(s.latency_ms).value);
}

RunConfig small_run(const std::string& scratch) {
  RunConfig config;
  config.world.markets = 2;
  config.world.scale = 8;
  config.seed = 5;
  config.seconds = 0.2;
  config.setup_reps = 1;
  config.scratch_dir = scratch;
  return config;
}

TEST(ServeTargets, HotWorkloadDrawsOnlyFromItsSeededPool) {
  const std::unique_ptr<World> world = build_world({1, 2, 8});
  EXPECT_TRUE(traffic_pool(*world, "serve", 5).empty());
  const std::vector<int> pool = traffic_pool(*world, "serve-hot", 5);
  EXPECT_EQ(pool.size(), std::min(kHotCarriers, world->topology.carrier_count()));
  EXPECT_EQ(pool, traffic_pool(*world, "serve-hot", 5));
  for (const ServeTarget& t : draw_targets(*world, 9, 500, pool)) {
    EXPECT_NE(std::find(pool.begin(), pool.end(), t.carrier), pool.end()) << t.path;
  }
}

std::string digest_named(const WorkloadResult& result, const std::string& name) {
  for (const auto& [n, hex] : result.digests) {
    if (n == name) return hex;
  }
  return "";
}

TEST(Digest, StableAcrossTwoInProcessRunsOnASmallWorld) {
  RunConfig config = small_run(::testing::TempDir() + "perfbench-digest");
  const WorkloadResult audit_a = run_audit(config);
  const WorkloadResult audit_b = run_audit(config);
  EXPECT_TRUE(audit_a.correct);
  EXPECT_FALSE(digest_named(audit_a, "report@seed=5").empty());
  EXPECT_FALSE(digest_named(audit_a, "recommendations").empty());
  EXPECT_EQ(audit_a.digests, audit_b.digests);

  const WorkloadResult replay_a = run_replay(config);
  const WorkloadResult replay_b = run_replay(config);
  EXPECT_TRUE(replay_a.correct);
  // Seed 5 is not the anchor seed: the anchor's window is digested too.
  EXPECT_FALSE(digest_named(replay_a, "window@seed=5").empty());
  EXPECT_FALSE(digest_named(replay_a, "window@seed=1").empty());
  EXPECT_EQ(replay_a.digests, replay_b.digests);

  const WorkloadResult serve_a = run_serve(config);
  const WorkloadResult serve_b = run_serve(config);
  EXPECT_TRUE(serve_a.correct);
  EXPECT_EQ(serve_a.failed, 0u);
  EXPECT_FALSE(digest_named(serve_a, "probes").empty());
  EXPECT_EQ(serve_a.digests, serve_b.digests);

  // Another seed audits other churn; the anchor digest stays put.
  config.seed = 6;
  const WorkloadResult audit_c = run_audit(config);
  EXPECT_NE(digest_named(audit_c, "report@seed=6"), digest_named(audit_a, "report@seed=5"));
  EXPECT_EQ(digest_named(audit_c, "recommendations"), digest_named(audit_a, "recommendations"));
}

}  // namespace
}  // namespace perfbench
