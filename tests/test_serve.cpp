// ServeDaemon: admission control, deadlines, bulkheads, hot engine swap,
// graceful degradation and drain. Most tests drive handle() directly — the
// full request path minus the socket — against a private registry; the last
// ones start a real listener and run the seeded loadgen over loopback.
#include "serve/daemon.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "config/rulebook.h"
#include "obs/log_buffer.h"
#include "obs/rules.h"
#include "obs/sampler.h"
#include "obs/trace.h"
#include "serve/loadgen.h"
#include "smartlaunch/sharded_ems.h"
#include "test_helpers.h"
#include "util/drain.h"
#include "util/log.h"
#include "util/obs_flags.h"
#include "util/strings.h"

namespace auric::serve {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(13, 2, 12);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthModel ground_truth{topo, schema, catalog};
  config::ConfigAssignment assignment = ground_truth.assign();
  obs::MetricsRegistry registry;  // private: tests must not share counters

  ServeOptions options() const { return ServeOptions{}; }

  ServeDaemon daemon(ServeOptions o) {
    return ServeDaemon(topo, schema, catalog, assignment, ground_truth, std::move(o), registry);
  }
};

/// The raw value of field `key` in one /tracez span line (numbers bare,
/// strings with their quotes), or empty when absent.
std::string span_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return {};
  const std::size_t from = at + tag.size();
  return line.substr(from, line.find_first_of(",}", from) - from);
}

obs::HttpRequest get(std::string target,
                     std::vector<std::pair<std::string, std::string>> headers = {}) {
  obs::HttpRequest request;
  request.method = "GET";
  request.target = std::move(target);
  request.headers = std::move(headers);
  return request;
}

TEST(ServeDaemon, RoutesTheControlAndDataPlane) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  EXPECT_EQ(daemon.generation(), 1u);

  obs::HttpResponse health = daemon.handle(get("/healthz"));
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.body.find("\"generation\":1"), std::string::npos);

  obs::HttpResponse rec = daemon.handle(get("/recommend?carrier=0"));
  EXPECT_EQ(rec.status, 200) << rec.body;
  EXPECT_NE(rec.body.find("\"carrier\":0"), std::string::npos);
  EXPECT_NE(rec.body.find("\"recommendations\":["), std::string::npos);

  obs::HttpResponse diff = daemon.handle(get("/diff?carrier=1"));
  EXPECT_EQ(diff.status, 200) << diff.body;
  EXPECT_NE(diff.body.find("\"changes\":["), std::string::npos);
  EXPECT_NE(diff.body.find("\"slots\":"), std::string::npos);

  EXPECT_EQ(daemon.handle(get("/metrics")).status, 200);
  EXPECT_EQ(daemon.handle(get("/varz")).status, 200);
  EXPECT_EQ(daemon.handle(get("/")).status, 200);
  EXPECT_EQ(daemon.handle(get("/nope")).status, 404);
  EXPECT_EQ(daemon.handle(get("/recommend")).status, 400);  // no carrier
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=999999")).status, 400);
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=abc")).status, 400);
  obs::HttpRequest put = get("/recommend?carrier=0");
  put.method = "PUT";
  EXPECT_EQ(daemon.handle(put).status, 405);
  // After all that, nothing is stuck in the admission window.
  EXPECT_EQ(daemon.admitted(), 0u);
}

TEST(ServeDaemon, LogzServesTheProcessLogTail) {
  // The daemon answers the live plane's read-only debug endpoints through
  // the same obs::debug_endpoint body, /logz included.
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  const std::string marker = "serve-logz-marker-" + std::to_string(daemon.generation());
  util::log_warn(marker);
  const obs::HttpResponse logz = daemon.handle(get("/logz"));
  EXPECT_EQ(logz.status, 200);
  EXPECT_EQ(logz.content_type, "text/plain; charset=utf-8");
  EXPECT_NE(logz.body.find(marker), std::string::npos);
  EXPECT_EQ(logz.body, obs::LogBuffer::global().text());
  EXPECT_NE(daemon.handle(get("/")).body.find("/logz"), std::string::npos);
  EXPECT_EQ(daemon.handle(get("/tracez")).status, 200);
  EXPECT_EQ(daemon.admitted(), 0u);
}

TEST(ServeDaemon, PairwiseRecommendationsNeedAValidNeighbor) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  const auto neighbors = f.topo.neighborhood(0);
  ASSERT_FALSE(neighbors.empty());
  const std::string target =
      "/recommend?carrier=0&neighbor=" + std::to_string(neighbors.front());
  EXPECT_EQ(daemon.handle(get(target)).status, 200);
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=0&neighbor=999999")).status, 400);
}

TEST(ServeDaemon, AdmissionShedsPastTheHighWaterMark) {
  Fixture f;
  ServeOptions o = f.options();
  o.queue_high_water = 0;  // every data request is past the mark
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();

  obs::HttpResponse shed = daemon.handle(get("/recommend?carrier=0"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("admission queue full"), std::string::npos);
  ASSERT_EQ(shed.extra_headers.size(), 1u);
  EXPECT_EQ(shed.extra_headers[0].first, "Retry-After");
  EXPECT_EQ(f.registry.counter("auric_serve_shed_total").value(), 1u);
  EXPECT_EQ(daemon.admitted(), 0u);  // the shed path released its slot

  // A recent shed flips /healthz to overloaded — the load balancer's cue.
  obs::HttpResponse health = daemon.handle(get("/healthz"));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"overloaded\""), std::string::npos);
  // The control plane itself is never admission-gated.
  EXPECT_EQ(daemon.handle(get("/metrics")).status, 200);
}

TEST(ServeDaemon, MalformedDeadlineHeaderIsRejected) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=0", {{"x-auric-deadline-ms", "abc"}})).status,
            400);
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=0", {{"x-auric-deadline-ms", "-5"}})).status,
            400);
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=0", {{"x-auric-deadline-ms", "250"}})).status,
            200);
}

TEST(ServeDaemon, DeadlineExpiryBeforeDispatchReturns504) {
  Fixture f;
  ServeOptions o = f.options();
  o.bulkhead_width = 0;  // no lane ever frees: every request expires waiting
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();

  const auto t0 = std::chrono::steady_clock::now();
  obs::HttpResponse response =
      daemon.handle(get("/recommend?carrier=0", {{"x-auric-deadline-ms", "50"}}));
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_EQ(response.status, 504);
  EXPECT_NE(response.body.find("before dispatch"), std::string::npos);
  EXPECT_GE(waited.count(), 50);
  EXPECT_EQ(f.registry.counter("auric_serve_deadline_expired_total").value(), 1u);
  EXPECT_EQ(daemon.admitted(), 0u);
}

TEST(ServeDaemon, MidFlightTimeoutReturns504WithoutPoisoningTheWorker) {
  Fixture f;
  ServeOptions o = f.options();
  o.work_delay_ms = 150;
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();

  obs::HttpResponse late =
      daemon.handle(get("/recommend?carrier=0", {{"x-auric-deadline-ms", "30"}}));
  EXPECT_EQ(late.status, 504);
  EXPECT_NE(late.body.find("in flight"), std::string::npos);
  EXPECT_EQ(f.registry.counter("auric_serve_timeouts_total").value(), 1u);

  // The late answer was discarded and its bulkhead lane released; the
  // daemon then serves a patient request normally.
  obs::HttpResponse ok =
      daemon.handle(get("/recommend?carrier=1", {{"x-auric-deadline-ms", "5000"}}));
  EXPECT_EQ(ok.status, 200) << ok.body;
  EXPECT_EQ(daemon.admitted(), 0u);
}

TEST(ServeDaemon, BulkheadsIsolateAHotMarketLane) {
  // One lane wedged at its width must not block a request routed to a
  // different lane. Requests run with work_delay to hold their lane briefly.
  Fixture f;
  // The market -> lane mapping is a hash; pick a bulkhead count that puts
  // the fixture's two markets on different lanes (one always exists unless
  // the 64-bit hashes collide outright).
  int bulkheads = 0;
  for (int candidate = 2; candidate <= 8; ++candidate) {
    if (smartlaunch::shard_of_market(0, candidate) !=
        smartlaunch::shard_of_market(1, candidate)) {
      bulkheads = candidate;
      break;
    }
  }
  ASSERT_GT(bulkheads, 0);

  ServeOptions o = f.options();
  o.bulkheads = bulkheads;
  o.bulkhead_width = 1;
  o.work_delay_ms = 200;
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();

  // One carrier per market: by construction they sit on different lanes.
  int lane0_carrier = -1, lane1_carrier = -1;
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    if (f.topo.carriers[c].market == 0 && lane0_carrier < 0) lane0_carrier = static_cast<int>(c);
    if (f.topo.carriers[c].market == 1 && lane1_carrier < 0) lane1_carrier = static_cast<int>(c);
  }
  ASSERT_GE(lane0_carrier, 0);
  ASSERT_GE(lane1_carrier, 0);

  // Saturate lane 0 (width 1) from a background thread.
  std::thread hog([&] {
    daemon.handle(get("/recommend?carrier=" + std::to_string(lane0_carrier),
                      {{"x-auric-deadline-ms", "5000"}}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));  // hog holds its lane

  // Lane 1 is free: a short-deadline request there completes despite the
  // saturated sibling lane.
  obs::HttpResponse other = daemon.handle(
      get("/recommend?carrier=" + std::to_string(lane1_carrier),
          {{"x-auric-deadline-ms", "5000"}}));
  EXPECT_EQ(other.status, 200) << other.body;
  hog.join();
}

TEST(ServeDaemon, RelearnHotSwapsWhileInFlightRequestsKeepTheirSnapshot) {
  Fixture f;
  ServeOptions o = f.options();
  o.work_delay_ms = 250;
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();
  ASSERT_EQ(daemon.generation(), 1u);

  // A slow request pins generation 1 while the swap happens underneath it.
  std::atomic<int> in_flight_generation{0};
  std::thread slow([&] {
    obs::HttpResponse r = daemon.handle(
        get("/recommend?carrier=0", {{"x-auric-deadline-ms", "5000"}}));
    in_flight_generation.store(
        r.body.find("\"generation\":1") != std::string::npos ? 1 : -1);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));  // it has snapshotted by now

  EXPECT_TRUE(daemon.relearn());
  EXPECT_EQ(daemon.generation(), 2u);
  slow.join();
  EXPECT_EQ(in_flight_generation.load(), 1);  // finished on the engine it started with

  // New requests see the swapped engine.
  obs::HttpResponse fresh =
      daemon.handle(get("/recommend?carrier=0", {{"x-auric-deadline-ms", "5000"}}));
  EXPECT_NE(fresh.body.find("\"generation\":2"), std::string::npos);
  EXPECT_EQ(f.registry.counter("auric_serve_engine_swaps_total").value(), 1u);
}

TEST(ServeDaemon, FailedRelearnKeepsServingTheLastGoodEngine) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  ASSERT_EQ(daemon.generation(), 1u);

  daemon.set_engine_builder(
      []() -> std::unique_ptr<core::AuricEngine> { throw std::runtime_error("feed corrupt"); });
  EXPECT_FALSE(daemon.relearn());
  EXPECT_TRUE(daemon.degraded());
  EXPECT_EQ(daemon.generation(), 1u);  // last-good bundle still installed
  EXPECT_EQ(f.registry.counter("auric_serve_relearn_failures_total").value(), 1u);
  EXPECT_DOUBLE_EQ(f.registry.gauge("auric_serve_degraded").value(), 1.0);

  obs::HttpResponse health = daemon.handle(get("/healthz"));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"degraded\""), std::string::npos);
  // Data plane keeps answering from the stale engine.
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=0")).status, 200);

  // POST /relearn reports the degradation to the caller too.
  obs::HttpRequest relearn;
  relearn.method = "POST";
  relearn.target = "/relearn";
  EXPECT_EQ(daemon.handle(relearn).status, 503);

  // The feed recovers: the next relearn swaps and clears degraded.
  daemon.set_engine_builder([&f]() {
    return std::make_unique<core::AuricEngine>(f.topo, f.schema, f.catalog, f.assignment);
  });
  EXPECT_EQ(daemon.handle(relearn).status, 200);
  EXPECT_FALSE(daemon.degraded());
  EXPECT_GE(daemon.generation(), 2u);
  obs::HttpResponse healthy = daemon.handle(get("/healthz"));
  EXPECT_EQ(healthy.status, 200) << healthy.body;
}

TEST(ServeDaemon, RecommendCarriesProvenanceFields) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  obs::HttpResponse rec = daemon.handle(get("/recommend?carrier=0"));
  ASSERT_EQ(rec.status, 200) << rec.body;
  EXPECT_NE(rec.body.find("\"source\":\""), std::string::npos);
  EXPECT_NE(rec.body.find("\"support\":"), std::string::npos);
  EXPECT_NE(rec.body.find("\"margin\":"), std::string::npos);
}

// /recommend and /diff bodies rendered with printf and string temporaries:
// the byte-for-byte reference for the daemon's to_chars renderer.
std::string printf_number(const char* fmt, double v) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

std::string reference_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
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

std::string reference_recommend_body(const config::ParamCatalog& catalog, netsim::CarrierId carrier,
                                     const std::vector<core::Recommendation>& recs) {
  std::string body = "{\"carrier\":" + std::to_string(carrier) +
                     ",\"generation\":1,\"recommendations\":[";
  bool first = true;
  for (const core::Recommendation& rec : recs) {
    const config::ParamDef& def = catalog.at(rec.param);
    if (!first) body += ',';
    first = false;
    body += "{\"param\":\"" + reference_escape(def.name) + "\"";
    if (rec.value != config::kUnset) {
      body += ",\"value\":" + printf_number("%g", def.domain.value(rec.value));
    }
    body += std::string(",\"source\":\"") + core::recommendation_source_name(rec.source) +
            "\",\"votes\":" + std::to_string(rec.votes) +
            ",\"group_size\":" + std::to_string(rec.group_size) +
            ",\"support\":" + printf_number("%.4f", rec.support) +
            ",\"margin\":" + printf_number("%.4f", rec.margin) + "}";
  }
  return body + "]}";
}

std::string reference_diff_body(
    const config::ParamCatalog& catalog, netsim::CarrierId carrier, std::size_t slots,
    const std::vector<smartlaunch::LaunchController::PlannedChange>& changes) {
  std::string body = "{\"carrier\":" + std::to_string(carrier) +
                     ",\"generation\":1,\"slots\":" + std::to_string(slots) + ",\"changes\":[";
  bool first = true;
  for (const auto& change : changes) {
    const config::ParamDef& def = catalog.at(change.slot.param);
    if (!first) body += ',';
    first = false;
    body += "{\"param\":\"" + reference_escape(def.name) + "\",\"mo_path\":\"" +
            reference_escape(change.slot.mo_path) + "\"";
    if (change.vendor_value != config::kUnset) {
      body += ",\"vendor\":" + printf_number("%g", def.domain.value(change.vendor_value));
    }
    if (change.new_value != config::kUnset) {
      body += ",\"new\":" + printf_number("%g", def.domain.value(change.new_value));
    }
    body += "}";
  }
  return body + "]}";
}

TEST(ServeDaemon, RenderedBodiesMatchThePrintfReferenceByteForByte) {
  Fixture f;
  const ServeOptions options = f.options();
  ServeDaemon daemon = f.daemon(options);
  daemon.warm_up();
  // A twin of the daemon's bundle: same inputs, same vendor-fault seed.
  const core::AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment);
  const config::Rulebook rulebook(f.ground_truth, f.catalog);
  const smartlaunch::LaunchController controller(engine, rulebook, f.assignment,
                                                 smartlaunch::VendorFaultOptions{},
                                                 smartlaunch::PushPolicy{}, options.seed);
  std::size_t changes_seen = 0;
  std::size_t pairwise_seen = 0;
  for (netsim::CarrierId c = 0; c < static_cast<netsim::CarrierId>(f.topo.carrier_count()); ++c) {
    const std::string id = std::to_string(c);
    const obs::HttpResponse singular = daemon.handle(get("/recommend?carrier=" + id));
    ASSERT_EQ(singular.status, 200) << singular.body;
    ASSERT_EQ(singular.body, reference_recommend_body(f.catalog, c, engine.recommend_singular(c)));
    EXPECT_TRUE(test::JsonChecker::valid(singular.body));

    const auto neighbors = f.topo.neighborhood(c);
    if (!neighbors.empty()) {
      const netsim::CarrierId n = neighbors.front();
      const obs::HttpResponse pair =
          daemon.handle(get("/recommend?carrier=" + id + "&neighbor=" + std::to_string(n)));
      ASSERT_EQ(pair.status, 200) << pair.body;
      ASSERT_EQ(pair.body,
                reference_recommend_body(f.catalog, c, engine.recommend_pairwise(c, n)));
      ++pairwise_seen;
    }

    std::vector<smartlaunch::LaunchController::PlannedChange> vendor;
    const auto changes = controller.plan_changes_detailed(c, &vendor);
    const obs::HttpResponse diff = daemon.handle(get("/diff?carrier=" + id));
    ASSERT_EQ(diff.status, 200) << diff.body;
    ASSERT_EQ(diff.body, reference_diff_body(f.catalog, c, vendor.size(), changes));
    EXPECT_TRUE(test::JsonChecker::valid(diff.body));
    changes_seen += changes.size();
  }
  // The walk covered the value, vendor and new fields, not just empty plans.
  EXPECT_GT(pairwise_seen, 0u);
  EXPECT_GT(changes_seen, 0u);
}

TEST(ServeDaemon, HandlerExceptionAnswersAParseable500) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  // An engine over a catalog one parameter longer than the daemon's: its
  // extra singular parameter has no definition on the daemon's side, so
  // rendering /recommend throws inside the handler.
  std::vector<config::ParamDef> defs;
  for (std::size_t p = 0; p < f.catalog.size(); ++p) {
    defs.push_back(f.catalog.at(static_cast<config::ParamId>(p)));
  }
  config::ParamDef extra = f.catalog.at(f.catalog.singular_ids().front());
  extra.name = "extraParam";
  defs.push_back(extra);
  const config::ParamCatalog wider(std::move(defs));
  const config::ConfigAssignment wider_assignment =
      config::GroundTruthModel(f.topo, f.schema, wider).assign();
  daemon.set_engine_builder([&] {
    return std::make_unique<core::AuricEngine>(f.topo, f.schema, wider, wider_assignment);
  });
  daemon.warm_up();

  const obs::HttpResponse response = daemon.handle(get("/recommend?carrier=0"));
  EXPECT_EQ(response.status, 500);
  EXPECT_EQ(response.content_type, "application/json");
  EXPECT_EQ(response.body.rfind("{\"error\":\"", 0), 0u) << response.body;
  EXPECT_TRUE(test::JsonChecker::valid(response.body)) << response.body;
  EXPECT_EQ(f.registry.counter("auric_serve_errors_total", "").value(), 1u);
}

TEST(ServeDaemon, ControlCharactersInNamesStayValidJson) {
  // Parameter names reach the body verbatim from the catalog; a tab or a
  // raw control byte in one must come out escaped, not as invalid JSON.
  Fixture f;
  std::vector<config::ParamDef> defs;
  for (std::size_t p = 0; p < f.catalog.size(); ++p) {
    defs.push_back(f.catalog.at(static_cast<config::ParamId>(p)));
  }
  const config::ParamId first = f.catalog.singular_ids().front();
  defs[static_cast<std::size_t>(first)].name += "\t\x01\"x\\";
  const config::ParamCatalog odd(std::move(defs));
  ServeDaemon daemon(f.topo, f.schema, odd, f.assignment, f.ground_truth, f.options(),
                     f.registry);
  daemon.warm_up();
  const obs::HttpResponse response = daemon.handle(get("/recommend?carrier=0"));
  ASSERT_EQ(response.status, 200) << response.body;
  EXPECT_NE(response.body.find("\\t\\u0001\\\"x\\\\\""), std::string::npos) << response.body;
  EXPECT_TRUE(test::JsonChecker::valid(response.body)) << response.body;
}

TEST(ServeDaemon, RelearnAuditRidesTheResponseAndModelz) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();

  // Before any relearn /modelz exists but has no audit yet.
  obs::HttpResponse before = daemon.handle(get("/modelz"));
  ASSERT_EQ(before.status, 200);
  EXPECT_NE(before.body.find("\"audit\":null"), std::string::npos);
  EXPECT_NE(before.body.find("\"model\":{"), std::string::npos);

  obs::HttpRequest relearn;
  relearn.method = "POST";
  relearn.target = "/relearn";
  obs::HttpResponse swapped = daemon.handle(relearn);
  ASSERT_EQ(swapped.status, 200) << swapped.body;
  EXPECT_NE(swapped.body.find("\"status\":\"swapped\""), std::string::npos);
  // Same inventory, same builder: the audit must find a clean diff.
  EXPECT_NE(swapped.body.find("\"audit\":{"), std::string::npos);
  EXPECT_NE(swapped.body.find("\"flips\":0"), std::string::npos);
  EXPECT_DOUBLE_EQ(f.registry.gauge("auric_serve_relearn_flip_rate").value(), 0.0);

  // The audit is retained for /modelz, alongside the watch document.
  obs::HttpResponse modelz = daemon.handle(get("/modelz"));
  ASSERT_EQ(modelz.status, 200);
  EXPECT_NE(modelz.body.find("\"audit\":{"), std::string::npos);
  EXPECT_NE(modelz.body.find("\"flip_rate\":0"), std::string::npos);
  EXPECT_NE(modelz.body.find("\"params\":["), std::string::npos);
  // A swapped relearn rolls a ModelWatch drift day.
  EXPECT_EQ(daemon.model_watch().days_rolled(), 1);
}

TEST(ServeDaemon, ShadowAuditRefusesADegradedRelearn) {
  Fixture f;
  ServeOptions o = f.options();
  o.max_flip_rate = 0.0;  // any flip at all refuses the swap
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();
  ASSERT_EQ(daemon.generation(), 1u);

  // A candidate whose vote threshold can never be met: every slot falls back
  // to the rule book, flipping every voted value — exactly the degenerate
  // relearn the audit exists to catch.
  daemon.set_engine_builder([&f]() {
    core::AuricOptions broken;
    broken.vote_threshold = 1.01;
    return std::make_unique<core::AuricEngine>(f.topo, f.schema, f.catalog, f.assignment,
                                               broken);
  });

  obs::HttpRequest relearn;
  relearn.method = "POST";
  relearn.target = "/relearn";
  obs::HttpResponse refused = daemon.handle(relearn);
  EXPECT_EQ(refused.status, 503);
  EXPECT_NE(refused.body.find("\"status\":\"refused\""), std::string::npos);
  EXPECT_NE(refused.body.find("\"audit\":{"), std::string::npos);

  // Last-good keeps serving; the refusal is accounted and surfaced.
  EXPECT_EQ(daemon.generation(), 1u);
  EXPECT_TRUE(daemon.degraded());
  EXPECT_EQ(f.registry.counter("auric_serve_relearn_refused_total").value(), 1u);
  EXPECT_EQ(f.registry.counter("auric_serve_engine_swaps_total").value(), 0u);
  EXPECT_GT(f.registry.gauge("auric_serve_relearn_flip_rate").value(), 0.0);
  EXPECT_EQ(daemon.handle(get("/recommend?carrier=0")).status, 200);
  EXPECT_EQ(daemon.handle(get("/healthz")).status, 503);

  // A healthy candidate passes the audit, swaps, and clears degraded.
  daemon.set_engine_builder([&f]() {
    return std::make_unique<core::AuricEngine>(f.topo, f.schema, f.catalog, f.assignment);
  });
  obs::HttpResponse recovered = daemon.handle(relearn);
  EXPECT_EQ(recovered.status, 200) << recovered.body;
  EXPECT_EQ(daemon.generation(), 2u);
  EXPECT_FALSE(daemon.degraded());
}

TEST(ServeDaemon, IncrementalRelearnRidesTheShadowAuditAndFlipRateCap) {
  Fixture f;
  ServeOptions o = f.options();
  o.max_flip_rate = 0.0;  // any flip at all refuses the swap
  o.relearn_mode = core::RelearnMode::kIncremental;
  ServeDaemon daemon = f.daemon(o);
  daemon.warm_up();
  ASSERT_EQ(daemon.generation(), 1u);

  obs::HttpRequest relearn;
  relearn.method = "POST";
  relearn.target = "/relearn";

  // Unchanged inventory: the clone delta-updates to an identical model, the
  // audit sees zero flips, and the swap clears the zero-tolerance cap.
  obs::HttpResponse swapped = daemon.handle(relearn);
  EXPECT_EQ(swapped.status, 200) << swapped.body;
  EXPECT_NE(swapped.body.find("\"mode\":\"incremental\""), std::string::npos);
  EXPECT_NE(swapped.body.find("\"flips\":0"), std::string::npos);
  EXPECT_EQ(daemon.generation(), 2u);

  // The inventory feed rewrites the network under the daemon (the owner may
  // refresh the resident assignment in place): the incremental clone absorbs
  // the deltas, the shadow-audit sees the disagreement, and the flip-rate cap
  // refuses the swap — incremental relearns get no bypass around the gate.
  const config::ConfigAssignment before = f.assignment;
  for (auto& column : f.assignment.singular) {
    for (std::size_t i = 0; i < column.configured_count(); ++i) {
      column.set(column.entity(i), 0, column.intended_at(i), column.cause_at(i));
    }
  }
  obs::HttpResponse refused = daemon.handle(relearn);
  EXPECT_EQ(refused.status, 503);
  EXPECT_NE(refused.body.find("\"status\":\"refused\""), std::string::npos);
  EXPECT_NE(refused.body.find("\"mode\":\"incremental\""), std::string::npos);
  EXPECT_EQ(daemon.generation(), 2u);
  EXPECT_TRUE(daemon.degraded());
  EXPECT_EQ(f.registry.counter("auric_serve_relearn_refused_total").value(), 1u);
  EXPECT_GT(f.registry.gauge("auric_serve_relearn_flip_rate").value(), 0.0);

  // Per-request mode override: ?mode=full takes the builder path (same
  // refusal — the gate is mode-independent); garbage is a 400.
  obs::HttpRequest full = relearn;
  full.target = "/relearn?mode=full";
  obs::HttpResponse full_refused = daemon.handle(full);
  EXPECT_EQ(full_refused.status, 503);
  EXPECT_NE(full_refused.body.find("\"mode\":\"full\""), std::string::npos);
  obs::HttpRequest bogus = relearn;
  bogus.target = "/relearn?mode=sideways";
  EXPECT_EQ(daemon.handle(bogus).status, 400);

  // The feed settles back: the next incremental relearn swaps cleanly.
  f.assignment = before;
  obs::HttpResponse recovered = daemon.handle(relearn);
  EXPECT_EQ(recovered.status, 200) << recovered.body;
  EXPECT_EQ(daemon.generation(), 3u);
  EXPECT_FALSE(daemon.degraded());
}

TEST(ServeDaemon, FiringAlertRulesFlipHealthzToAlerting) {
  Fixture f;
  // As `auric serve --rules FILE` wires it: the live plane loads the rules
  // and evaluates them on its sampler's ticks; the daemon, which must not
  // outlive the plane, reads the verdict.
  util::LivePlaneOptions plane_options;
  plane_options.sample_interval_ms = 0.0;  // ticks by hand below
  plane_options.rules_file =
      (std::filesystem::temp_directory_path() / "auric_serve_depth.rules").string();
  std::ofstream(plane_options.rules_file, std::ios::trunc) << "depth,threshold,some_gauge,>,5\n";
  util::LivePlane plane(plane_options, f.registry);
  plane.rules()->set_log([](const std::string&) {});
  ServeDaemon daemon = f.daemon(f.options());
  daemon.set_rule_engine(plane.rules());
  daemon.warm_up();
  plane.start();

  EXPECT_EQ(daemon.handle(get("/healthz")).status, 200);
  f.registry.gauge("some_gauge").set(10.0);
  plane.sampler()->tick(1.0);
  obs::HttpResponse health = daemon.handle(get("/healthz"));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"alerting\""), std::string::npos);
}

TEST(ServeDaemon, DrainStopsAdmittingAndReportsDraining) {
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  daemon.drain();
  EXPECT_TRUE(daemon.draining());

  obs::HttpResponse shed = daemon.handle(get("/recommend?carrier=0"));
  EXPECT_EQ(shed.status, 503);
  EXPECT_NE(shed.body.find("draining"), std::string::npos);
  obs::HttpResponse health = daemon.handle(get("/healthz"));
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(health.body.find("\"status\":\"draining\""), std::string::npos);
  EXPECT_DOUBLE_EQ(f.registry.gauge("auric_serve_up").value(), 0.0);
}

TEST(ServeDaemon, PostQuitRequestsAProcessDrain) {
  util::reset_drain_flag();
  Fixture f;
  ServeDaemon daemon = f.daemon(f.options());
  daemon.warm_up();
  obs::HttpRequest quit;
  quit.method = "POST";
  quit.target = "/quit";
  EXPECT_EQ(daemon.handle(quit).status, 200);
  EXPECT_TRUE(util::drain_requested());
  util::reset_drain_flag();
}

TEST(ServeDaemon, ServesTheSeededLoadgenOverARealSocket) {
  Fixture f;
  ServeOptions o = f.options();
  o.http.threads = 4;
  ServeDaemon daemon = f.daemon(o);
  daemon.start();
  ASSERT_TRUE(daemon.running());
  ASSERT_NE(daemon.port(), 0);

  LoadGenOptions lg;
  lg.port = daemon.port();
  lg.clients = 3;
  lg.requests_per_client = 15;
  lg.carrier_universe = static_cast<int>(f.topo.carrier_count());
  LoadGenStats stats = run_loadgen(lg);
  EXPECT_EQ(stats.sent, 45u);
  EXPECT_GT(stats.ok, 0u);
  EXPECT_EQ(stats.lost(), 0u);
  EXPECT_EQ(stats.refused, 0u);
  EXPECT_EQ(stats.server_error, 0u);
  EXPECT_EQ(stats.ok + stats.shed + stats.expired + stats.client_error, stats.sent);

  // Identical seed, identical daemon state -> identical request stream.
  daemon.relearn();  // swap mid-life: the stream must still lose nothing
  LoadGenStats again = run_loadgen(lg);
  EXPECT_EQ(again.sent, 45u);
  EXPECT_EQ(again.lost(), 0u);

  daemon.drain();
  EXPECT_FALSE(daemon.running());
  EXPECT_GE(daemon.requests_served(), 90u);

  // After drain the port is closed: everything is refused, nothing is lost.
  LoadGenStats after = run_loadgen(lg);
  EXPECT_EQ(after.refused, after.sent);
  EXPECT_EQ(after.lost(), 0u);
}

TEST(ServeDaemon, OneTraceStitchesListenerAdmissionBulkheadAndEngineSpans) {
  // The observability acceptance shape: a client-chosen traceparent rides a
  // real /recommend over loopback, the response echoes the trace id, the
  // kept trace shows every hop, and the latency histogram's bucket carries
  // the trace id as an exemplar on /metrics.
  obs::TraceRecorder& rec = obs::TraceRecorder::global();
  rec.clear();
  obs::TailOptions tail;
  tail.min_ms = 0.0;  // keep every finalized trace for the assertions
  rec.set_tail_options(tail);

  Fixture f;
  ServeOptions o = f.options();
  o.http.threads = 2;
  ServeDaemon daemon = f.daemon(o);
  daemon.start();
  ASSERT_NE(daemon.port(), 0);

  LoadGenOptions lg;
  lg.port = daemon.port();
  lg.clients = 2;
  lg.requests_per_client = 10;
  lg.healthz_weight = 0.0;  // every request is a traced data request
  lg.carrier_universe = static_cast<int>(f.topo.carrier_count());
  lg.slowest = 3;
  LoadGenStats stats = run_loadgen(lg);
  EXPECT_GT(stats.ok, 0u);
  EXPECT_EQ(stats.lost(), 0u);

  // Per-outcome quantiles and the slowest-N report came back filled in.
  ASSERT_FALSE(stats.by_outcome.empty());
  EXPECT_EQ(stats.by_outcome[0].outcome, "ok");
  EXPECT_GT(stats.by_outcome[0].count, 0u);
  ASSERT_FALSE(stats.slowest.empty());
  EXPECT_GE(stats.slowest[0].latency_ms, stats.slowest.back().latency_ms);

  // Every data response echoed the client's trace id (32 hex chars).
  const std::string& trace_id = stats.slowest[0].trace_id;
  ASSERT_EQ(trace_id.size(), 32u) << "no Traceparent came back on the slowest request";

  // The kept trace for that id contains every hop of the request path.
  const std::string endpoint =
      stats.slowest[0].target.rfind("/diff", 0) == 0 ? "diff" : "recommend";
  const obs::HttpResponse tracez = daemon.handle(get("/tracez?trace_id=" + trace_id));
  ASSERT_EQ(tracez.status, 200);
  EXPECT_NE(tracez.body.find("\"trace\":\"" + trace_id + "\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"name\":\"http./" + endpoint + "\""), std::string::npos)
      << tracez.body;
  EXPECT_NE(tracez.body.find("\"name\":\"serve." + endpoint + "\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"name\":\"serve.admission\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"name\":\"serve.bulkhead\""), std::string::npos);
  // The engine span is named after the perfbench layer it times.
  const std::string engine_span = endpoint == "diff" ? "smartlaunch.plan" : "core.recommend";
  EXPECT_NE(tracez.body.find("\"name\":\"" + engine_span + "\""), std::string::npos);

  // The engine call runs on the connection thread that read the request:
  // the engine span and its serve.<endpoint> parent share one thread.
  const std::vector<std::string> lines = util::split(tracez.body, '\n');
  const auto span_line = [&](const std::string& key, const std::string& value) {
    const auto it = std::find_if(lines.begin(), lines.end(), [&](const std::string& line) {
      return span_field(line, key) == value;
    });
    return it == lines.end() ? std::string() : *it;
  };
  const std::string engine_line = span_line("name", "\"" + engine_span + "\"");
  ASSERT_FALSE(engine_line.empty()) << tracez.body;
  const std::string parent_line = span_line("id", span_field(engine_line, "parent"));
  ASSERT_FALSE(parent_line.empty()) << tracez.body;
  EXPECT_EQ(span_field(parent_line, "name"), "\"serve." + endpoint + "\"");
  EXPECT_EQ(span_field(engine_line, "thread"), span_field(parent_line, "thread"));
  EXPECT_FALSE(span_field(engine_line, "thread").empty());

  // The latency histogram exposes SOME trace id as an OpenMetrics exemplar.
  const obs::HttpResponse metrics = daemon.handle(get("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# {trace_id=\""), std::string::npos);

  daemon.drain();
  rec.clear();
  rec.set_tail_options(obs::TailOptions{});  // restore defaults
}

TEST(ServeDaemon, OverloadShedsButAdmittedRequestsMeetTheirDeadline) {
  // The acceptance shape in miniature: more concurrent clients than the
  // admission window allows, a daemon slowed enough that overload is real.
  // The daemon must shed (503) rather than queue without bound, and every
  // admitted request must finish inside its deadline (no losses).
  Fixture f;
  ServeOptions o = f.options();
  o.http.threads = 8;
  o.queue_high_water = 2;
  o.work_delay_ms = 5;
  ServeDaemon daemon = f.daemon(o);
  daemon.start();

  LoadGenOptions lg;
  lg.port = daemon.port();
  lg.clients = 8;
  lg.requests_per_client = 25;
  lg.deadline_ms = 1000;
  lg.carrier_universe = static_cast<int>(f.topo.carrier_count());
  LoadGenStats stats = run_loadgen(lg);
  EXPECT_EQ(stats.sent, 200u);
  EXPECT_GT(stats.shed, 0u);  // overload produced real shedding
  EXPECT_GT(stats.ok, 0u);    // yet admitted work was served
  EXPECT_EQ(stats.lost(), 0u);
  EXPECT_LT(stats.p99_ms, 1000.0);  // admitted p99 under the deadline
  EXPECT_GT(f.registry.counter("auric_serve_shed_total").value(), 0u);
  daemon.drain();
}

}  // namespace
}  // namespace auric::serve
