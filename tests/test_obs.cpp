#include "obs/log_buffer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/log.h"
#include "util/retry.h"

namespace auric::obs {
namespace {

TEST(Counter, IncrementsAndReads) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test_counter", "help");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("test_gauge");
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
  g.add(-5.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
}

TEST(Histogram, BucketBoundariesArePrometheusLe) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test_hist", {1.0, 10.0, 100.0});
  // `le` semantics: a value exactly on a boundary lands in that bucket.
  h.observe(1.0);
  h.observe(0.5);
  h.observe(10.0);
  h.observe(10.5);
  h.observe(1000.0);  // overflow bucket
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(buckets[1], 1u);  // 10.0
  EXPECT_EQ(buckets[2], 1u);  // 10.5
  EXPECT_EQ(buckets[3], 1u);  // 1000.0
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 0.5 + 10.0 + 10.5 + 1000.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  MetricsRegistry reg;
  Counter& a = reg.counter("ops_total", "ops");
  Counter& b = reg.counter("ops_total", "ops");
  EXPECT_EQ(&a, &b);
  // Distinct label sets are distinct instruments; label order is canonical.
  Counter& x = reg.counter("by_kind", "", {{"kind", "a"}, {"zone", "1"}});
  Counter& y = reg.counter("by_kind", "", {{"zone", "1"}, {"kind", "a"}});
  Counter& z = reg.counter("by_kind", "", {{"kind", "b"}, {"zone", "1"}});
  EXPECT_EQ(&x, &y);
  EXPECT_NE(&x, &z);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(MetricsRegistry, KindAndBoundsConflictsThrow) {
  MetricsRegistry reg;
  reg.counter("name_a");
  EXPECT_THROW(reg.gauge("name_a"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("name_a", {1.0}), std::invalid_argument);
  reg.histogram("name_h", {1.0, 2.0});
  EXPECT_THROW(reg.histogram("name_h", {1.0, 3.0}), std::invalid_argument);
  EXPECT_NO_THROW(reg.histogram("name_h", {1.0, 2.0}));
}

TEST(MetricsRegistry, ValidatesNamesAndLabels) {
  MetricsRegistry reg;
  EXPECT_THROW(reg.counter(""), std::invalid_argument);
  EXPECT_THROW(reg.counter("9starts_with_digit"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space"), std::invalid_argument);
  EXPECT_NO_THROW(reg.counter("ok_name:subsystem_total"));
  EXPECT_THROW(reg.counter("lbl", "", {{"bad key", "v"}}), std::invalid_argument);
  EXPECT_THROW(reg.counter("lbl", "", {{"k", "v"}, {"k", "w"}}), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotIsSortedAndDeterministic) {
  MetricsRegistry reg;
  reg.counter("zeta_total").inc(1);
  reg.counter("alpha_total", "", {{"kind", "b"}}).inc(2);
  reg.counter("alpha_total", "", {{"kind", "a"}}).inc(3);
  reg.gauge("mid_gauge").set(7);
  const std::vector<MetricSample> snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap[0].name, "alpha_total");
  EXPECT_EQ(snap[0].labels[0].second, "a");
  EXPECT_DOUBLE_EQ(snap[0].value, 3.0);
  EXPECT_EQ(snap[1].name, "alpha_total");
  EXPECT_EQ(snap[1].labels[0].second, "b");
  EXPECT_EQ(snap[2].name, "mid_gauge");
  EXPECT_EQ(snap[3].name, "zeta_total");
}

TEST(MetricsRegistry, PrometheusExportParsesAndIsCumulative) {
  MetricsRegistry reg;
  reg.counter("req_total", "requests", {{"code", "200"}}).inc(5);
  Histogram& h = reg.histogram("lat_ms", {1.0, 5.0, 25.0}, "latency");
  for (const double v : {0.5, 0.7, 3.0, 30.0, 400.0}) h.observe(v);
  const std::string text = reg.prometheus_text();

  EXPECT_NE(text.find("# HELP req_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{code=\"200\"} 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);

  // Parse every histogram bucket line; cumulative counts must be monotone
  // and the +Inf bucket must equal _count.
  std::istringstream lines(text);
  std::string line;
  std::vector<std::uint64_t> cumulative;
  std::uint64_t inf_value = 0;
  std::uint64_t count_value = 0;
  while (std::getline(lines, line)) {
    if (line.rfind("lat_ms_bucket{", 0) == 0) {
      const std::uint64_t v = std::stoull(line.substr(line.rfind(' ') + 1));
      cumulative.push_back(v);
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_value = v;
    } else if (line.rfind("lat_ms_count", 0) == 0) {
      count_value = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_EQ(cumulative.size(), 4u);  // 3 bounds + +Inf
  EXPECT_TRUE(std::is_sorted(cumulative.begin(), cumulative.end()));
  EXPECT_EQ(cumulative[0], 2u);
  EXPECT_EQ(inf_value, 5u);
  EXPECT_EQ(count_value, 5u);
}

TEST(MetricsRegistry, CsvAndJsonRenderEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("c_total", "a counter").inc(3);
  reg.gauge("g", "", {{"k", "va\"lue"}}).set(1.5);
  reg.histogram("h", {1.0}).observe(0.5);

  const std::string csv = reg.csv_text();
  EXPECT_EQ(csv.rfind("kind,name,labels,field,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,c_total,\"\",value,3"), std::string::npos);
  EXPECT_NE(csv.find("histogram,h,\"\",count,1"), std::string::npos);

  const std::string json = reg.json_text();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  EXPECT_NE(json.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(json.find("va\\\"lue"), std::string::npos);  // label values are escaped
  EXPECT_NE(json.find("\"buckets\":[1,0]"), std::string::npos);
}

TEST(MetricsRegistry, WriteMetricsFilePicksFormatByExtension) {
  MetricsRegistry reg;
  reg.counter("c_total").inc(1);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "auric_obs_test";
  std::filesystem::create_directories(dir);
  const auto slurp = [](const std::filesystem::path& p) {
    std::ifstream in(p);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  };
  write_metrics_file(reg, (dir / "m.prom").string());
  write_metrics_file(reg, (dir / "m.csv").string());
  write_metrics_file(reg, (dir / "m.json").string());
  EXPECT_NE(slurp(dir / "m.prom").find("# TYPE c_total counter"), std::string::npos);
  EXPECT_EQ(slurp(dir / "m.csv").rfind("kind,", 0), 0u);
  EXPECT_EQ(slurp(dir / "m.json").front(), '[');
  EXPECT_THROW(write_metrics_file(reg, (dir / "no_such_dir" / "m.prom").string()),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

TEST(MetricsRegistry, ResetValuesKeepsReferencesValid) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c_total");
  Histogram& h = reg.histogram("h", {1.0});
  c.inc(9);
  h.observe(0.5);
  reg.reset_values();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  c.inc();
  EXPECT_EQ(c.value(), 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricsRegistry, ConcurrentIncrementsAndSnapshotsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("stress_total");
  Histogram& h = reg.histogram("stress_hist", {10.0, 100.0, 1000.0});
  Gauge& g = reg.gauge("stress_gauge");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads + 1);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load()) {}
      // Some threads resolve the instrument themselves — registration must
      // be safe against concurrent lookups too.
      Counter& mine = reg.counter("stress_total");
      for (int i = 0; i < kPerThread; ++i) {
        mine.inc();
        h.observe(static_cast<double>((t * kPerThread + i) % 2000));
        g.add(1.0);
      }
    });
  }
  // One reader snapshotting concurrently; snapshots must be internally
  // consistent (never more observations than the final total).
  workers.emplace_back([&] {
    while (!go.load()) {}
    for (int i = 0; i < 50; ++i) {
      for (const MetricSample& s : reg.snapshot()) {
        if (s.name == "stress_hist") {
          std::uint64_t total = 0;
          for (std::uint64_t b : s.buckets) total += b;
          EXPECT_LE(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
        }
      }
    }
  });
  go.store(true);
  for (std::thread& w : workers) w.join();
  const std::uint64_t expected = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(c.value(), expected);
  EXPECT_EQ(h.count(), expected);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(expected));
  std::uint64_t bucket_total = 0;
  for (std::uint64_t b : h.bucket_counts()) bucket_total += b;
  EXPECT_EQ(bucket_total, expected);
}

TEST(Trace, SpansNestAndIdsAreDeterministic) {
  TraceRecorder rec(16);
  {
    ScopedSpan outer("outer", rec);
    EXPECT_EQ(outer.id(), 1u);
    {
      ScopedSpan child_a("child.a", rec);
      EXPECT_EQ(child_a.id(), 2u);
    }
    {
      ScopedSpan child_b("child.b", rec);
      ScopedSpan grandchild("grandchild", rec);
      EXPECT_EQ(grandchild.id(), 4u);
    }
  }
  const std::vector<SpanRecord> spans = rec.records();  // completion order
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].name, "child.a");
  EXPECT_EQ(spans[0].parent, 1u);
  EXPECT_EQ(spans[1].name, "grandchild");
  EXPECT_EQ(spans[1].parent, 3u);
  EXPECT_EQ(spans[2].name, "child.b");
  EXPECT_EQ(spans[2].parent, 1u);
  EXPECT_EQ(spans[3].name, "outer");
  EXPECT_EQ(spans[3].parent, 0u);  // root
  for (const SpanRecord& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns);
    EXPECT_EQ(s.thread, 1u);
  }
  // Siblings complete in program order.
  EXPECT_LE(spans[0].end_ns, spans[2].start_ns);
}

TEST(Trace, ClearResetsIdsAndRecords) {
  TraceRecorder rec(8);
  { ScopedSpan s("one", rec); }
  rec.clear();
  EXPECT_TRUE(rec.records().empty());
  { ScopedSpan s("two", rec); }
  const std::vector<SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, 1u);  // counter restarted
}

TEST(Trace, RingOverflowDropsOldest) {
  TraceRecorder rec(3);
  for (int i = 0; i < 7; ++i) {
    ScopedSpan s("span." + std::to_string(i), rec);
  }
  const std::vector<SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(rec.dropped(), 4u);
  EXPECT_EQ(spans[0].name, "span.4");  // oldest surviving
  EXPECT_EQ(spans[2].name, "span.6");
}

TEST(Trace, DisabledRecorderIsANoOp) {
  TraceRecorder rec(8);
  rec.set_enabled(false);
  {
    ScopedSpan s("ghost", rec);
    EXPECT_EQ(s.id(), 0u);
  }
  EXPECT_TRUE(rec.records().empty());
  rec.set_enabled(true);
  { ScopedSpan s("real", rec); }
  EXPECT_EQ(rec.records().size(), 1u);
}

TEST(Trace, JsonlEmitsOneParsableObjectPerSpan) {
  TraceRecorder rec(8);
  {
    ScopedSpan outer("outer", rec);
    ScopedSpan inner("in\"ner", rec);  // name needs escaping
  }
  const std::string jsonl = rec.jsonl();
  std::istringstream lines(jsonl);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"id\":"), std::string::npos);
    EXPECT_NE(line.find("\"parent\":"), std::string::npos);
    EXPECT_NE(line.find("\"dur_ns\":"), std::string::npos);
  }
  EXPECT_EQ(n, 2);
  EXPECT_NE(jsonl.find("\"name\":\"in\\\"ner\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":1"), std::string::npos);
}

TEST(Trace, ThreadsGetDenseIndicesAndIndependentParents) {
  TraceRecorder rec(256);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec] {
      ScopedSpan outer("t.outer", rec);
      ScopedSpan inner("t.inner", rec);
    });
  }
  for (std::thread& w : workers) w.join();
  const std::vector<SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 2u * kThreads);
  std::vector<std::uint32_t> threads;
  for (const SpanRecord& s : spans) {
    threads.push_back(s.thread);
    if (s.name == "t.inner") {
      // The inner span's parent is the same thread's outer span.
      const auto outer = std::find_if(spans.begin(), spans.end(), [&](const SpanRecord& o) {
        return o.id == s.parent;
      });
      ASSERT_NE(outer, spans.end());
      EXPECT_EQ(outer->name, "t.outer");
      EXPECT_EQ(outer->thread, s.thread);
    } else {
      EXPECT_EQ(s.parent, 0u);
    }
  }
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());
  ASSERT_EQ(threads.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(threads.front(), 1u);  // dense, starting at 1
  EXPECT_EQ(threads.back(), static_cast<std::uint32_t>(kThreads));
}

TEST(Trace, WriteTraceFileRoundTrips) {
  TraceRecorder rec(8);
  { ScopedSpan s("filed", rec); }
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "auric_obs_trace_test.jsonl";
  write_trace_file(rec, path.string());
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"name\":\"filed\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(MetricsRegistry, LabelCardinalityGuardCapsDistinctLabelSets) {
  MetricsRegistry reg;
  reg.set_label_limit(3);
  EXPECT_EQ(reg.label_limit(), 3u);
  for (int i = 0; i < 3; ++i) {
    reg.counter("per_cell_total", "", {{"cell", std::to_string(i)}}).inc();
  }
  EXPECT_EQ(reg.label_sets("per_cell_total"), 3u);
  const std::size_t size_at_cap = reg.size();

  // Registrations past the cap return a shared sink: call sites keep
  // working, the export stays bounded, and the drop is counted.
  Counter& sink_a = reg.counter("per_cell_total", "", {{"cell", "overflow-a"}});
  Counter& sink_b = reg.counter("per_cell_total", "", {{"cell", "overflow-b"}});
  EXPECT_EQ(&sink_a, &sink_b);
  sink_a.inc(5);
  EXPECT_EQ(sink_b.value(), 5u);
  EXPECT_EQ(reg.label_sets("per_cell_total"), 3u);
  EXPECT_EQ(reg.counter("obs_labels_dropped_total").value(), 2u);
  // The sink itself is never exported.
  EXPECT_NE(reg.prometheus_text().find("per_cell_total{cell=\"2\"}"), std::string::npos);
  EXPECT_EQ(reg.prometheus_text().find("overflow"), std::string::npos);
  EXPECT_EQ(reg.size(), size_at_cap + 1);  // only obs_labels_dropped_total was added

  // Re-asking for a label set that got in under the cap still resolves to
  // the real instrument, not the sink.
  Counter& real = reg.counter("per_cell_total", "", {{"cell", "1"}});
  EXPECT_NE(&real, &sink_a);

  // Gauges and histograms overflow into kind-matched sinks too.
  reg.set_label_limit(1);
  reg.gauge("g", "", {{"k", "a"}});
  Gauge& gsink = reg.gauge("g", "", {{"k", "b"}});
  gsink.set(7.0);
  EXPECT_EQ(reg.label_sets("g"), 1u);
  reg.histogram("h", {1.0}, "", {{"k", "a"}});
  Histogram& hsink = reg.histogram("h", {1.0}, "", {{"k", "b"}});
  hsink.observe(0.5);
  EXPECT_EQ(hsink.count(), 1u);
  EXPECT_EQ(reg.label_sets("h"), 1u);
}

TEST(LogBufferObs, RingKeepsTheMostRecentLines) {
  LogBuffer ring(3);
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_TRUE(ring.tail().empty());
  EXPECT_EQ(ring.text(), "");
  for (int i = 0; i < 5; ++i) {
    ring.append("line " + std::to_string(i));
  }
  const std::vector<std::string> tail = ring.tail();
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0], "line 2");  // oldest surviving
  EXPECT_EQ(tail[2], "line 4");
  EXPECT_EQ(ring.text(), "line 2\nline 3\nline 4\n");
  EXPECT_EQ(ring.total_appended(), 5u);
  ring.clear();
  EXPECT_TRUE(ring.tail().empty());
  EXPECT_EQ(ring.total_appended(), 0u);
}

TEST(LogBufferObs, UtilLogFeedsTheGlobalRing) {
  const std::uint64_t before = LogBuffer::global().total_appended();
  util::log_info("obs ring probe 1147");
  EXPECT_EQ(LogBuffer::global().total_appended(), before + 1);
  const std::vector<std::string> tail = LogBuffer::global().tail();
  ASSERT_FALSE(tail.empty());
  EXPECT_NE(tail.back().find("obs ring probe 1147"), std::string::npos);
  EXPECT_NE(tail.back().find("INFO"), std::string::npos);
  EXPECT_EQ(tail.back().find('\n'), std::string::npos);  // lines are stored bare
}

TEST(LogObs, ParseLogLevelAcceptsNamesAndNumbers) {
  EXPECT_EQ(util::parse_log_level("debug"), util::LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("INFO"), util::LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("Warning"), util::LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("3"), util::LogLevel::kError);
  EXPECT_FALSE(util::parse_log_level("loud").has_value());
  EXPECT_FALSE(util::parse_log_level("").has_value());
}

TEST(LogObs, WarnAndErrorAreCountedEvenWhenFiltered) {
  Counter& warns = MetricsRegistry::global().counter("auric_log_messages_total", "",
                                                     {{"level", "warn"}});
  Counter& errors = MetricsRegistry::global().counter("auric_log_messages_total", "",
                                                      {{"level", "error"}});
  const util::LogLevel before = util::log_level();
  const std::uint64_t warns_before = warns.value();
  const std::uint64_t errors_before = errors.value();
  util::set_log_level(util::LogLevel::kError);  // warn text is filtered...
  util::log_warn("obs test warn");
  util::log_error("obs test error");
  util::set_log_level(before);
  EXPECT_EQ(warns.value(), warns_before + 1);  // ...but still counted
  EXPECT_EQ(errors.value(), errors_before + 1);
}

TEST(BreakerObs, TransitionsAndRefusalsAreCounted) {
  auto& reg = MetricsRegistry::global();
  // Breaker series carry a `shard` label (a default breaker is shard 0).
  Counter& to_open =
      reg.counter("auric_breaker_transitions_total", "", {{"shard", "0"}, {"to", "open"}});
  Counter& to_half =
      reg.counter("auric_breaker_transitions_total", "", {{"shard", "0"}, {"to", "half_open"}});
  Counter& to_closed =
      reg.counter("auric_breaker_transitions_total", "", {{"shard", "0"}, {"to", "closed"}});
  Counter& refusals = reg.counter("auric_breaker_refusals_total", "", {{"shard", "0"}});
  Gauge& state = reg.gauge("auric_breaker_state", "", {{"shard", "0"}});
  const std::uint64_t open0 = to_open.value();
  const std::uint64_t half0 = to_half.value();
  const std::uint64_t closed0 = to_closed.value();
  const std::uint64_t refusals0 = refusals.value();

  util::CircuitBreaker::Options options;
  options.failure_threshold = 2;
  options.cooldown_ops = 2;
  util::CircuitBreaker breaker(options);
  breaker.record_failure();
  breaker.record_failure();  // trips
  EXPECT_EQ(to_open.value(), open0 + 1);
  EXPECT_DOUBLE_EQ(state.value(),
                   static_cast<double>(util::CircuitBreaker::State::kOpen));
  EXPECT_FALSE(breaker.allow());
  EXPECT_FALSE(breaker.allow());  // cooldown exhausted -> half-open
  EXPECT_EQ(refusals.value(), refusals0 + 2);
  EXPECT_EQ(to_half.value(), half0 + 1);
  EXPECT_TRUE(breaker.allow());  // half-open probe
  breaker.record_success();
  EXPECT_EQ(to_closed.value(), closed0 + 1);
  EXPECT_DOUBLE_EQ(state.value(),
                   static_cast<double>(util::CircuitBreaker::State::kClosed));
}

// --- trace context and the traceparent wire format ---

TEST(TraceContext, TraceparentRoundTripsThroughParse) {
  const TraceId id{0x0af7651916cd43ddULL, 0x8448eb211c80319cULL};
  const std::string header = format_traceparent(id, 0xb7ad6b7169203331ULL);
  EXPECT_EQ(header, "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01");
  const std::optional<Traceparent> parsed = parse_traceparent(header);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->trace_id, id);
  EXPECT_EQ(parsed->parent_span, 0xb7ad6b7169203331ULL);
  EXPECT_TRUE(parsed->sampled());
  EXPECT_EQ(trace_id_hex(id), "0af7651916cd43dd8448eb211c80319c");
  EXPECT_EQ(parse_trace_id_hex(trace_id_hex(id)), id);
}

TEST(TraceContext, TraceparentRejectsTruncatedGarbageAndZeroIds) {
  const std::string valid = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01";
  ASSERT_TRUE(parse_traceparent(valid).has_value());
  // Every strict prefix is a truncation and must be rejected.
  for (std::size_t len = 0; len < valid.size(); ++len) {
    EXPECT_FALSE(parse_traceparent(std::string_view(valid).substr(0, len)).has_value())
        << "accepted a " << len << "-char truncation";
  }
  // Garbage in every field.
  EXPECT_FALSE(parse_traceparent("not a traceparent header, not even close to 1").has_value());
  EXPECT_FALSE(
      parse_traceparent("zz-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").has_value());
  EXPECT_FALSE(
      parse_traceparent("00-0af7651916cd43dd8448eb211c8031XX-b7ad6b7169203331-01").has_value());
  EXPECT_FALSE(
      parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-b7ad6b71692033XX-01").has_value());
  EXPECT_FALSE(
      parse_traceparent("00_0af7651916cd43dd8448eb211c80319c_b7ad6b7169203331_01").has_value());
  // All-zero trace id and all-zero parent id are invalid per spec.
  EXPECT_FALSE(
      parse_traceparent("00-00000000000000000000000000000000-b7ad6b7169203331-01").has_value());
  EXPECT_FALSE(
      parse_traceparent("00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01").has_value());
  // Version ff is reserved; version 00 must be exactly 55 chars.
  EXPECT_FALSE(
      parse_traceparent("ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").has_value());
  EXPECT_FALSE(parse_traceparent(valid + "-suffix").has_value());
  // Foreign (future) versions are tolerated, with or without a suffix —
  // but the suffix must be '-'-separated.
  EXPECT_TRUE(
      parse_traceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01").has_value());
  EXPECT_TRUE(parse_traceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01-xtra")
                  .has_value());
  EXPECT_FALSE(parse_traceparent("cc-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01xtra")
                   .has_value());
}

TEST(TraceContext, ScopeInstallsAndRestoresTheThreadContext) {
  const TraceContext before = current_trace_context();
  const TraceId id{7, 9};
  {
    TraceContextScope scope(TraceContext{id, 3, 0});
    EXPECT_EQ(current_trace_context().trace_id, id);
    EXPECT_EQ(current_trace_context().span, 3u);
    {
      TraceContextScope inner(TraceContext{});  // explicit detach
      EXPECT_FALSE(current_trace_context().trace_id.valid());
    }
    EXPECT_EQ(current_trace_context().trace_id, id);
  }
  EXPECT_EQ(current_trace_context().trace_id, before.trace_id);
}

TEST(Trace, AdoptedContextJoinsTheSubmittersTrace) {
  TraceRecorder rec(16);
  TraceContext captured;
  TraceId trace;
  std::uint64_t outer_id = 0;
  {
    ScopedSpan outer("outer", rec);
    trace = outer.trace();
    outer_id = outer.id();
    EXPECT_TRUE(trace.valid());
    captured = current_trace_context();
    // Worker-thread handoff, the way TaskPool does it.
    std::thread worker([&] {
      TraceContextScope adopt(captured);
      ScopedSpan inner("inner", rec);
      EXPECT_EQ(inner.trace(), trace);
    });
    worker.join();
  }
  const std::vector<SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[0].parent, outer_id);
  EXPECT_EQ(spans[0].trace, trace);
  EXPECT_EQ(spans[1].trace, trace);
}

// --- tail-based retention ---

TEST(Trace, TailRetentionKeepsSlowTracesWithTheirSpanTrees) {
  TraceRecorder rec(64);
  TailOptions tail;
  tail.min_ms = 0.0;  // everything is "slow enough"
  rec.set_tail_options(tail);
  TraceId id;
  {
    ScopedSpan root("root", rec);
    id = root.trace();
    ScopedSpan child("child", rec);
  }
  const std::vector<KeptTrace> kept = rec.kept_traces();
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].trace, id);
  EXPECT_FALSE(kept[0].error);
  ASSERT_EQ(kept[0].spans.size(), 2u);  // completion order
  EXPECT_EQ(kept[0].spans[0].name, "child");
  EXPECT_EQ(kept[0].spans[1].name, "root");
}

TEST(Trace, TailRetentionKeepsErrorTracesUnderRingPressure) {
  TraceRecorder rec(64);
  TailOptions tail;
  tail.min_ms = 1e9;  // nothing qualifies on duration
  tail.capacity = 2;
  rec.set_tail_options(tail);

  {
    ScopedSpan fast("fast.and.fine", rec);
  }
  EXPECT_TRUE(rec.kept_traces().empty());  // fast + healthy -> discarded

  TraceId errs[3];
  for (int i = 0; i < 3; ++i) {
    {
      ScopedSpan s("err." + std::to_string(i), rec);
      errs[i] = s.trace();
      rec.mark_trace_error();
    }
    {
      ScopedSpan healthy("healthy.between", rec);
    }
  }
  // Capacity 2 under pressure: the two newest error traces survive, the
  // healthy traces never entered, the evicted one is counted.
  const std::vector<KeptTrace> kept = rec.kept_traces();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].trace, errs[1]);
  EXPECT_EQ(kept[1].trace, errs[2]);
  EXPECT_TRUE(kept[0].error);
  EXPECT_TRUE(kept[1].error);
  EXPECT_EQ(rec.kept_dropped(), 1u);
  EXPECT_EQ(kept[1].spans.size(), 1u);  // the healthy child trace is separate
}

TEST(Trace, TracezAnswersTraceIdAndMinMsQueries) {
  TraceRecorder rec(64);
  TailOptions tail;
  tail.min_ms = 0.0;
  rec.set_tail_options(tail);
  TraceId id;
  {
    ScopedSpan root("queried", rec);
    id = root.trace();
  }
  {
    ScopedSpan other("other", rec);
  }

  const std::string by_id = tracez_text(rec, "trace_id=" + trace_id_hex(id));
  EXPECT_NE(by_id.find("\"name\":\"queried\""), std::string::npos);
  EXPECT_EQ(by_id.find("\"name\":\"other\""), std::string::npos);
  EXPECT_NE(by_id.find("\"trace\":\"" + trace_id_hex(id) + "\""), std::string::npos);
  EXPECT_TRUE(tracez_text(rec, "trace_id=" + std::string(32, 'e')).empty());
  EXPECT_TRUE(tracez_text(rec, "trace_id=garbage").empty());

  const std::string slow = tracez_text(rec, "min_ms=0");
  EXPECT_NE(slow.find("\"dur_ms\":"), std::string::npos);  // per-trace header line
  EXPECT_NE(slow.find("\"name\":\"queried\""), std::string::npos);
  EXPECT_TRUE(tracez_text(rec, "min_ms=100000").empty());

  // No query: the live ring, unchanged (back-compat with old scrapers).
  const std::string live = tracez_text(rec, "");
  EXPECT_NE(live.find("\"name\":\"other\""), std::string::npos);
}

TEST(Trace, TraceLongerThanTheRingKeepsItsNewestRecords) {
  // One root whose children overrun the live ring four times over: the kept
  // copy is bounded by the ring, holds the newest records, and counts the
  // rest instead of buffering the whole trace.
  constexpr std::size_t kCapacity = 64;
  TraceRecorder rec(kCapacity);
  TailOptions tail;
  tail.min_ms = 0.0;
  rec.set_tail_options(tail);
  std::vector<std::uint64_t> child_ids;
  std::uint64_t root_id = 0;
  {
    ScopedSpan root("long.root", rec);
    root_id = root.id();
    for (std::size_t i = 0; i < 4 * kCapacity; ++i) {
      ScopedSpan child("long.child", rec);
      child_ids.push_back(child.id());
    }
  }
  const std::uint64_t total = 4 * kCapacity + 1;
  EXPECT_EQ(rec.dropped(), total - kCapacity);
  const std::vector<KeptTrace> kept = rec.kept_traces();
  ASSERT_EQ(kept.size(), 1u);
  ASSERT_EQ(kept[0].spans.size(), kCapacity);
  EXPECT_EQ(kept[0].truncated, total - kCapacity);
  for (std::size_t i = 0; i + 1 < kCapacity; ++i) {
    EXPECT_EQ(kept[0].spans[i].id, child_ids[child_ids.size() - (kCapacity - 1) + i]);
  }
  EXPECT_EQ(kept[0].spans.back().id, root_id);
  EXPECT_EQ(kept[0].spans.back().name, "long.root");
}

TEST(Trace, TracezTraceIdRendersALongKeptTraceOnceAndFast) {
  // One kept trace of 32,769 spans that also all sit in the live ring: every
  // ring span is a duplicate of a kept one. The render must list each span
  // once, and the de-duplication must not be quadratic in the trace length
  // (a per-span linear scan took ~1 s at this size).
  constexpr std::size_t kSpans = 32769;
  TraceRecorder rec(kSpans);
  TailOptions tail;
  tail.min_ms = 0.0;
  rec.set_tail_options(tail);
  TraceId id;
  {
    ScopedSpan root("big.root", rec);
    id = root.trace();
    for (std::size_t i = 0; i + 1 < kSpans; ++i) {
      ScopedSpan child("big.child", rec);
    }
  }
  ASSERT_EQ(rec.kept_traces().size(), 1u);
  ASSERT_EQ(rec.kept_traces()[0].spans.size(), kSpans);

  const auto start = std::chrono::steady_clock::now();
  const std::string out = tracez_text(rec, "trace_id=" + trace_id_hex(id));
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(seconds, 1.0);

  std::set<std::string> ids;
  std::size_t lines = 0;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) {
    ++lines;
    const std::size_t from = line.find("\"id\":");
    ASSERT_NE(from, std::string::npos) << line;
    ids.insert(line.substr(from, line.find(',', from) - from));
  }
  EXPECT_EQ(lines, kSpans);
  EXPECT_EQ(ids.size(), kSpans);
}

TEST(Trace, SpanNamesPastTheTableBoundRecordUnderTheOverflowName) {
  TraceRecorder rec(8);
  const SpanNameId first = rec.intern("http.", "/first");
  EXPECT_EQ(rec.intern("http./first"), first);  // prefix/suffix split is immaterial
  for (std::uint32_t i = 0; i < TraceRecorder::kMaxSpanNames; ++i) {
    rec.intern("name.", std::to_string(i));
  }
  const std::uint64_t before = rec.name_overflows();
  EXPECT_GT(before, 0u);  // the table filled before the loop ended
  { ScopedSpan s("one.name.too.many", rec); }
  EXPECT_EQ(rec.name_overflows(), before + 1);
  EXPECT_EQ(rec.intern("http./first"), first);  // earlier names still resolve
  const std::vector<SpanRecord> spans = rec.records();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "obs.name_overflow");
}

namespace {

/// 8 threads x 20,000 spans as 4,000 traces of a root plus 4 children. Every
/// 1,000th trace of a thread is error-marked; returns per-trace span ids of
/// the marked ones.
std::vector<std::pair<TraceId, std::vector<std::uint64_t>>> record_concurrently(
    TraceRecorder& rec, std::vector<std::uint64_t>& all_ids) {
  constexpr int kThreads = 8;
  constexpr int kTraces = 4000;
  std::vector<std::vector<std::uint64_t>> ids(kThreads);
  std::vector<std::vector<std::pair<TraceId, std::vector<std::uint64_t>>>> marked(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&rec, &ids, &marked, t] {
      for (int k = 0; k < kTraces; ++k) {
        std::vector<std::uint64_t> trace_ids;
        ScopedSpan root("c.root", rec);
        trace_ids.push_back(root.id());
        for (int c = 0; c < 4; ++c) {
          ScopedSpan child("c.child", rec);
          trace_ids.push_back(child.id());
        }
        if (k % 1000 == 0) {
          rec.mark_trace_error();
          marked[t].emplace_back(root.trace(), trace_ids);
        }
        ids[t].insert(ids[t].end(), trace_ids.begin(), trace_ids.end());
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::vector<std::pair<TraceId, std::vector<std::uint64_t>>> out;
  for (int t = 0; t < kThreads; ++t) {
    all_ids.insert(all_ids.end(), ids[t].begin(), ids[t].end());
    out.insert(out.end(), marked[t].begin(), marked[t].end());
  }
  return out;
}

}  // namespace

TEST(Trace, ConcurrentRecordingKeepsEverySpanExactlyOnce) {
  constexpr std::size_t kTotal = 8 * 20000;
  TraceRecorder rec(kTotal);
  TailOptions tail;
  tail.min_ms = 1e9;  // only the error-marked traces are kept
  rec.set_tail_options(tail);
  std::vector<std::uint64_t> ids;
  const auto marked = record_concurrently(rec, ids);
  ASSERT_EQ(ids.size(), kTotal);

  std::vector<std::uint64_t> recorded;
  for (const SpanRecord& s : rec.records()) recorded.push_back(s.id);
  EXPECT_EQ(rec.dropped(), 0u);
  std::sort(ids.begin(), ids.end());
  std::sort(recorded.begin(), recorded.end());
  EXPECT_EQ(std::adjacent_find(recorded.begin(), recorded.end()), recorded.end());  // unique
  EXPECT_EQ(recorded, ids);  // every span exactly once

  // Each error-marked root's kept trace holds exactly its own spans, though
  // 7 other threads wrote into the same ring range meanwhile.
  const std::vector<KeptTrace> kept = rec.kept_traces();
  ASSERT_EQ(kept.size(), marked.size());
  for (const auto& [trace, span_ids] : marked) {
    const auto it = std::find_if(kept.begin(), kept.end(),
                                 [&](const KeptTrace& k) { return k.trace == trace; });
    ASSERT_NE(it, kept.end());
    EXPECT_TRUE(it->error);
    EXPECT_EQ(it->truncated, 0u);
    std::vector<std::uint64_t> got;
    for (const SpanRecord& s : it->spans) got.push_back(s.id);
    std::vector<std::uint64_t> want = span_ids;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
}

TEST(Trace, ConcurrentRecordingIntoASmallRingCountsTheOverflow) {
  constexpr std::size_t kTotal = 8 * 20000;
  constexpr std::size_t kCapacity = 4096;
  TraceRecorder rec(kCapacity);
  TailOptions tail;
  tail.min_ms = 1e9;
  rec.set_tail_options(tail);
  std::vector<std::uint64_t> ids;
  const auto marked = record_concurrently(rec, ids);
  const std::vector<SpanRecord> spans = rec.records();
  EXPECT_EQ(spans.size(), kCapacity);
  EXPECT_EQ(rec.dropped(), kTotal - kCapacity);
  // A kept trace never holds another trace's spans; it is complete unless
  // the ring wrapped past its start while the root was open.
  const std::vector<KeptTrace> kept = rec.kept_traces();
  EXPECT_EQ(kept.size(), marked.size());
  for (const KeptTrace& k : kept) {
    EXPECT_TRUE(k.error);
    for (const SpanRecord& s : k.spans) EXPECT_EQ(s.trace, k.trace);
    if (k.truncated == 0) {
      EXPECT_EQ(k.spans.size(), 5u);
    }
  }
}

// --- histogram exemplars ---

TEST(Histogram, ExemplarsLinkBucketsToTraces) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("exemplar_ms", {1.0, 10.0});
  EXPECT_FALSE(h.exemplars_enabled());
  EXPECT_TRUE(h.exemplars().empty());
  h.observe(0.5);  // before enabling: counted, no exemplar
  h.enable_exemplars();
  h.enable_exemplars();  // idempotent
  ASSERT_TRUE(h.exemplars_enabled());

  const TraceId id{0, 42};
  {
    TraceContextScope scope(TraceContext{id, 7, 0});
    h.observe(5.0);
  }
  h.observe(100.0);  // no active trace: the overflow bucket stays bare

  const std::vector<HistogramExemplar> ex = h.exemplars();
  ASSERT_EQ(ex.size(), 3u);
  EXPECT_FALSE(ex[0].trace_id.valid());
  EXPECT_EQ(ex[1].trace_id, id);
  EXPECT_DOUBLE_EQ(ex[1].value, 5.0);
  EXPECT_FALSE(ex[2].trace_id.valid());

  // OpenMetrics rendering: the exemplar rides its bucket line.
  const std::string text = reg.prometheus_text();
  EXPECT_NE(text.find("# {trace_id=\"" + trace_id_hex(id) + "\"} 5"), std::string::npos);

  // reset clears exemplars with the counts.
  reg.reset_values();
  for (const HistogramExemplar& e : h.exemplars()) {
    EXPECT_FALSE(e.trace_id.valid());
  }
}

// --- offline latency attribution (tracestats) ---

TEST(TraceStats, FoldsSelfTimeAndCriticalPaths) {
  // root [0,10ms] with children fast [0,2ms] and slow [2,9ms]: self 1ms,
  // critical path root>slow (slow finishes last).
  const std::string jsonl =
      "{\"id\":1,\"parent\":0,\"trace\":\"t1\",\"name\":\"root\",\"start_ns\":0,"
      "\"end_ns\":10000000}\n"
      "{\"id\":2,\"parent\":1,\"trace\":\"t1\",\"name\":\"fast\",\"start_ns\":0,"
      "\"end_ns\":2000000}\n"
      "{\"id\":3,\"parent\":1,\"trace\":\"t1\",\"name\":\"slow\",\"start_ns\":2000000,"
      "\"end_ns\":9000000}\n"
      "this line is junk and must be skipped, not fatal\n";
  const TraceStatsReport report = compute_trace_stats(jsonl);
  EXPECT_EQ(report.spans, 3u);
  EXPECT_EQ(report.skipped_lines, 1u);
  ASSERT_EQ(report.by_name.size(), 3u);
  // Sorted by self time: slow (7ms), fast (2ms), root (10 - 9 = 1ms).
  EXPECT_EQ(report.by_name[0].name, "slow");
  EXPECT_DOUBLE_EQ(report.by_name[0].self_ms, 7.0);
  EXPECT_EQ(report.by_name[2].name, "root");
  EXPECT_DOUBLE_EQ(report.by_name[2].total_ms, 10.0);
  EXPECT_DOUBLE_EQ(report.by_name[2].self_ms, 1.0);
  ASSERT_EQ(report.paths.size(), 1u);
  EXPECT_EQ(report.paths[0].path, "root>slow");
  EXPECT_DOUBLE_EQ(report.paths[0].dur_ms, 10.0);
  EXPECT_EQ(report.paths[0].trace, "t1");

  const std::string csv = trace_stats_csv(report);
  EXPECT_EQ(csv.rfind("kind,trace,name,count,total_ms,self_ms\n", 0), 0u);
  EXPECT_NE(csv.find("name,,slow,1,7.000,7.000"), std::string::npos);
  EXPECT_NE(csv.find("critical,t1,root>slow,1,10.000,0.000"), std::string::npos);
}

TEST(TraceStats, RootNameRootsPathsBelowTheTraceRoot) {
  // day spans nest under run; --root day must still yield per-day paths.
  const std::string jsonl =
      "{\"id\":1,\"parent\":0,\"trace\":\"t\",\"name\":\"run\",\"start_ns\":0,"
      "\"end_ns\":30000000}\n"
      "{\"id\":2,\"parent\":1,\"trace\":\"t\",\"name\":\"day\",\"start_ns\":0,"
      "\"end_ns\":10000000}\n"
      "{\"id\":3,\"parent\":2,\"trace\":\"t\",\"name\":\"launch\",\"start_ns\":1000000,"
      "\"end_ns\":9000000}\n"
      "{\"id\":4,\"parent\":1,\"trace\":\"t\",\"name\":\"day\",\"start_ns\":10000000,"
      "\"end_ns\":30000000}\n";
  TraceStatsOptions options;
  options.root = "day";
  const TraceStatsReport report = compute_trace_stats(jsonl, options);
  ASSERT_EQ(report.paths.size(), 2u);
  EXPECT_EQ(report.paths[0].path, "day");        // the slower, childless day
  EXPECT_DOUBLE_EQ(report.paths[0].dur_ms, 20.0);
  EXPECT_EQ(report.paths[1].path, "day>launch");
  EXPECT_DOUBLE_EQ(report.paths[1].dur_ms, 10.0);
}

TEST(TraceStats, TopTruncatesBothSections) {
  std::string jsonl;
  for (int i = 0; i < 6; ++i) {
    jsonl += "{\"id\":" + std::to_string(i + 1) + ",\"parent\":0,\"trace\":\"t" +
             std::to_string(i) + "\",\"name\":\"span." + std::to_string(i) +
             "\",\"start_ns\":0,\"end_ns\":" + std::to_string((i + 1) * 1000000) + "}\n";
  }
  TraceStatsOptions options;
  options.top = 2;
  const TraceStatsReport report = compute_trace_stats(jsonl, options);
  ASSERT_EQ(report.by_name.size(), 2u);
  EXPECT_EQ(report.by_name[0].name, "span.5");  // largest self time first
  ASSERT_EQ(report.paths.size(), 2u);
  EXPECT_DOUBLE_EQ(report.paths[0].dur_ms, 6.0);
}

}  // namespace
}  // namespace auric::obs
