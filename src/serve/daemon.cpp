#include "serve/daemon.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/engine_diff.h"
#include "obs/debug_endpoint.h"
#include "obs/rules.h"
#include "obs/trace.h"
#include "smartlaunch/sharded_ems.h"
#include "util/drain.h"
#include "util/log.h"
#include "util/render.h"
#include "util/strings.h"

namespace auric::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Strict integer parse; nullopt on garbage or empty.
std::optional<std::int64_t> parse_int(std::string_view s) {
  if (s.empty()) {
    return std::nullopt;
  }
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

/// A carrier id in [0, count), or nullopt.
std::optional<netsim::CarrierId> parse_carrier(std::string_view s, std::size_t count) {
  const std::optional<std::int64_t> v = parse_int(s);
  if (!v.has_value() || *v < 0 || static_cast<std::size_t>(*v) >= count) {
    return std::nullopt;
  }
  return static_cast<netsim::CarrierId>(*v);
}

obs::HttpResponse json_response(int status, std::string body) {
  return {status, "application/json", std::move(body), {}};
}

obs::HttpResponse shed_response(const char* why) {
  return {503,
          "application/json",
          std::string("{\"status\":\"shed\",\"reason\":\"") + why + "\"}",
          {{"Retry-After", "1"}}};
}

}  // namespace

ServeDaemon::ServeDaemon(const netsim::Topology& topology,
                         const netsim::AttributeSchema& schema,
                         const config::ParamCatalog& catalog,
                         const config::ConfigAssignment& assignment,
                         const config::GroundTruthModel& ground_truth, Options options,
                         obs::MetricsRegistry& registry)
    : topology_(&topology),
      schema_(&schema),
      catalog_(&catalog),
      assignment_(&assignment),
      rulebook_(ground_truth, catalog),
      options_(std::move(options)),
      registry_(&registry),
      watch_(catalog, registry),
      bulk_used_(static_cast<std::size_t>(std::max(1, options_.bulkheads)), 0),
      requests_recommend_(registry.counter("auric_serve_requests_total", "serve requests",
                                           {{"endpoint", "recommend"}})),
      requests_diff_(registry.counter("auric_serve_requests_total", "serve requests",
                                      {{"endpoint", "diff"}})),
      requests_healthz_(registry.counter("auric_serve_requests_total", "serve requests",
                                         {{"endpoint", "healthz"}})),
      shed_total_(registry.counter("auric_serve_shed_total",
                                   "requests shed at admission (503 + Retry-After)")),
      deadline_expired_total_(registry.counter(
          "auric_serve_deadline_expired_total",
          "requests whose deadline expired before dispatch (pre-dispatch 504)")),
      timeouts_total_(registry.counter("auric_serve_timeouts_total",
                                       "requests that timed out mid-flight (504)")),
      engine_swaps_total_(
          registry.counter("auric_serve_engine_swaps_total", "successful hot engine swaps")),
      relearn_failures_total_(registry.counter("auric_serve_relearn_failures_total",
                                               "relearns that failed (last-good kept)")),
      relearn_refused_total_(registry.counter(
          "auric_serve_relearn_refused_total",
          "relearns the shadow-audit refused (flip rate over max_flip_rate)")),
      errors_total_(registry.counter("auric_serve_errors_total",
                                     "requests answered 500 (handler threw)")),
      queue_depth_(registry.gauge("auric_serve_queue_depth", "requests in the admission window")),
      degraded_gauge_(
          registry.gauge("auric_serve_degraded", "1 while serving a stale last-good engine")),
      up_gauge_(registry.gauge("auric_serve_up", "1 while the daemon accepts requests")),
      generation_gauge_(
          registry.gauge("auric_serve_engine_generation", "generation of the served engine")),
      flip_rate_gauge_(registry.gauge("auric_serve_relearn_flip_rate",
                                      "flip rate of the last relearn shadow-audit")),
      latency_recommend_(registry.histogram("auric_serve_latency_ms",
                                            obs::default_latency_bounds_ms(),
                                            "serve latency", {{"endpoint", "recommend"}})),
      latency_diff_(registry.histogram("auric_serve_latency_ms",
                                       obs::default_latency_bounds_ms(), "serve latency",
                                       {{"endpoint", "diff"}})) {
  // Exemplars link a scraped latency bucket to the trace that landed there:
  // the p99 bucket on /metrics names a trace_id /tracez can expand.
  latency_recommend_.enable_exemplars();
  latency_diff_.enable_exemplars();
  builder_ = [this] {
    return std::make_unique<core::AuricEngine>(*topology_, *schema_, *catalog_, *assignment_);
  };
  if (options_.http.name == "http listener") {
    options_.http.name = "serve daemon";
  }
}

ServeDaemon::~ServeDaemon() { drain(); }

void ServeDaemon::set_engine_builder(EngineBuilder builder) {
  std::lock_guard<std::mutex> lock(relearn_mu_);
  builder_ = std::move(builder);
}

std::shared_ptr<const ServeDaemon::EngineBundle> ServeDaemon::snapshot() const {
  std::lock_guard<std::mutex> lock(bundle_mu_);
  return bundle_;
}

std::uint64_t ServeDaemon::generation() const {
  const auto bundle = snapshot();
  return bundle == nullptr ? 0 : bundle->generation;
}

std::unique_ptr<ServeDaemon::EngineBundle> ServeDaemon::build_bundle() {
  auto bundle = std::make_unique<EngineBundle>();
  bundle->engine = builder_();
  if (bundle->engine == nullptr) {
    throw std::runtime_error("serve: engine builder returned null");
  }
  // Every bundle records into the daemon-lifetime watch, so per-parameter
  // telemetry survives hot swaps (the audit's own recommend calls record too
  // — model counters measure engine traffic, not client traffic).
  bundle->engine->set_watch(&watch_);
  bundle->controller = std::make_unique<smartlaunch::LaunchController>(
      *bundle->engine, rulebook_, *assignment_, smartlaunch::VendorFaultOptions{},
      smartlaunch::PushPolicy{}, options_.seed);
  return bundle;
}

void ServeDaemon::warm_up() {
  std::lock_guard<std::mutex> relearn_lock(relearn_mu_);
  {
    std::lock_guard<std::mutex> lock(bundle_mu_);
    if (bundle_ != nullptr) {
      return;
    }
  }
  std::unique_ptr<EngineBundle> bundle = build_bundle();  // throws on failure: no
                                                          // last-good to fall back to
  bundle->generation = 1;
  std::lock_guard<std::mutex> lock(bundle_mu_);
  bundle_ = std::move(bundle);
  generation_gauge_.set(1.0);
}

bool ServeDaemon::relearn() { return relearn_audited(nullptr) == RelearnOutcome::kSwapped; }

ServeDaemon::RelearnOutcome ServeDaemon::relearn_audited(std::string* audit_json,
                                                         core::RelearnMode mode) {
  std::lock_guard<std::mutex> relearn_lock(relearn_mu_);
  const std::shared_ptr<const EngineBundle> current = snapshot();
  const std::uint64_t next_generation = (current == nullptr ? 0 : current->generation) + 1;
  // Incremental needs a serving engine to delta-update; before the first
  // warm-up the full builder is the only option.
  const bool incremental = mode == core::RelearnMode::kIncremental && current != nullptr &&
                           current->engine != nullptr;
  std::unique_ptr<EngineBundle> fresh;
  try {
    if (incremental) {
      // Clone-and-update off to the side: engines are copyable (the attribute
      // code table is shared, so the clone's internal pointers stay valid
      // after the RCU flip frees the original), and the clone absorbs the
      // inventory's slot deltas in O(delta) instead of a from-scratch learn.
      // The clone goes through the same audit gate as a full rebuild below.
      fresh = std::make_unique<EngineBundle>();
      fresh->engine = std::make_unique<core::AuricEngine>(*current->engine);
      fresh->engine->incremental_relearn(*assignment_);
      fresh->engine->set_watch(&watch_);
      fresh->controller = std::make_unique<smartlaunch::LaunchController>(
          *fresh->engine, rulebook_, *assignment_, smartlaunch::VendorFaultOptions{},
          smartlaunch::PushPolicy{}, options_.seed);
    } else {
      fresh = build_bundle();
    }
  } catch (const std::exception& e) {
    // Graceful degradation: the last-good bundle keeps serving; /healthz
    // flips to degraded until a later relearn succeeds.
    relearn_failures_total_.inc();
    degraded_.store(true);
    degraded_gauge_.set(1.0);
    util::log(util::LogLevel::kError,
              util::format("serve: %s relearn failed (%s); serving last-good engine",
                           core::relearn_mode_name(mode), e.what()));
    return RelearnOutcome::kFailed;
  }
  fresh->generation = next_generation;

  // Shadow-audit (DESIGN.md §17): replay a seeded carrier sample through the
  // serving and fresh engines BEFORE the flip. A flip rate over the cap means
  // the new model disagrees with the serving one on too much of the network
  // to trust a hot swap — keep last-good, surface degraded, leave the audit
  // on /modelz as the evidence an operator needs to adjudicate.
  if (current != nullptr && current->engine != nullptr) {
    try {
      const core::EngineDiffReport report = core::diff_engines(
          *current->engine, *fresh->engine, options_.audit_sample, options_.seed);
      flip_rate_gauge_.set(report.flip_rate);
      std::string audit = report.json();
      if (audit_json != nullptr) {
        *audit_json = audit;
      }
      {
        std::lock_guard<std::mutex> lock(audit_mu_);
        last_audit_ = std::move(audit);
      }
      if (report.flip_rate > options_.max_flip_rate) {
        relearn_refused_total_.inc();
        degraded_.store(true);
        degraded_gauge_.set(1.0);
        util::log(util::LogLevel::kError,
                  util::format("serve: relearn refused (flip rate %.4f > %.4f); "
                               "serving last-good engine",
                               report.flip_rate, options_.max_flip_rate));
        return RelearnOutcome::kRefused;
      }
    } catch (const std::exception& e) {
      // A test-injected builder may produce an engine the audit cannot
      // compare (different catalog or carrier space). The engine itself is
      // usable, so swap unaudited rather than fail the relearn.
      util::log(util::LogLevel::kWarn,
                util::format("serve: relearn audit skipped (%s)", e.what()));
    }
  }
  {
    // RCU-style flip: in-flight requests hold their own shared_ptr and
    // finish on the bundle they started with.
    std::lock_guard<std::mutex> lock(bundle_mu_);
    bundle_ = std::move(fresh);
  }
  engine_swaps_total_.inc();
  degraded_.store(false);
  degraded_gauge_.set(0.0);
  generation_gauge_.set(static_cast<double>(next_generation));
  // Each swapped relearn closes a ModelWatch drift day: the drift gauges
  // compare recommendation traffic between relearn epochs.
  watch_.roll_day();
  return RelearnOutcome::kSwapped;
}

std::string ServeDaemon::modelz_json() const {
  std::string audit;
  {
    std::lock_guard<std::mutex> lock(audit_mu_);
    audit = last_audit_;
  }
  std::string body = "{\"generation\":" + std::to_string(generation()) +
                     ",\"degraded\":" + (degraded_.load() ? "true" : "false") +
                     ",\"audit\":" + (audit.empty() ? "null" : audit) +
                     ",\"model\":" + watch_.modelz_json() + "}";
  return body;
}

void ServeDaemon::start() {
  if (running()) {
    return;
  }
  warm_up();
  draining_.store(false);
  listener_ = std::make_unique<obs::HttpListener>(
      [this](const obs::HttpRequest& request) { return handle(request); }, options_.http);
  listener_->start();
  up_gauge_.set(1.0);
}

void ServeDaemon::drain() {
  draining_.store(true);
  // Admitted requests finish: their connection thread is inside handle(),
  // which never checks draining_ after admission.
  while (admitted_.load() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Connections still queued in the listener get a prompt 503 "draining"
  // terminal response while stop() drains the fd queue.
  if (listener_ != nullptr) {
    listener_->stop();
  }
  up_gauge_.set(0.0);
}

obs::HttpResponse ServeDaemon::healthz() const {
  const char* status = "ok";
  int code = 200;
  if (draining_.load()) {
    status = "draining";
    code = 503;
  } else if (degraded_.load()) {
    status = "degraded";
    code = 503;
  } else if (recently_shed()) {
    status = "overloaded";
    code = 503;
  } else if (rules_ != nullptr && !rules_->healthy()) {
    status = "alerting";
    code = 503;
  }
  std::string body = std::string("{\"status\":\"") + status +
                     "\",\"generation\":" + std::to_string(generation()) +
                     ",\"admitted\":" + std::to_string(admitted_.load()) + "}";
  return json_response(code, std::move(body));
}

void ServeDaemon::note_shed() {
  shed_total_.inc();
  last_shed_ms_.store(now_ms(), std::memory_order_relaxed);
}

bool ServeDaemon::recently_shed() const {
  const std::int64_t last = last_shed_ms_.load(std::memory_order_relaxed);
  return last >= 0 && now_ms() - last < options_.overload_grace_ms;
}

obs::HttpResponse ServeDaemon::handle(const obs::HttpRequest& request) {
  const std::string_view path = request.path();
  if (request.method == "GET") {
    // The data path first: it pays no debug-route comparisons.
    if (path == "/recommend") {
      return handle_data(request, Endpoint::kRecommend);
    }
    if (path == "/diff") {
      return handle_data(request, Endpoint::kDiff);
    }
    // Control plane: never admission-gated, so health and metrics stay
    // observable under overload — exactly when they matter most.
    if (path == "/healthz") {
      requests_healthz_.inc();
      return healthz();
    }
    if (std::optional<obs::HttpResponse> debug =
            obs::debug_endpoint(path, request.query(), *registry_)) {
      return std::move(*debug);
    }
    if (path == "/modelz") {
      return json_response(200, modelz_json());
    }
    if (path == "/" || path.empty()) {
      return {200,
              "text/plain; charset=utf-8",
              "auric serve\nGET /recommend?carrier=N[&neighbor=M]  GET /diff?carrier=N\n"
              "GET /healthz /metrics /varz /tracez /logz /profilez /modelz   POST /relearn /quit\n",
              {}};
    }
    return {404, "text/plain; charset=utf-8", "unknown endpoint\n", {}};
  }
  if (request.method == "POST") {
    if (path == "/relearn") {
      core::RelearnMode mode = options_.relearn_mode;
      const std::string_view mode_arg = util::query_param(request.query(), "mode");
      if (mode_arg == "full") {
        mode = core::RelearnMode::kFull;
      } else if (mode_arg == "incremental") {
        mode = core::RelearnMode::kIncremental;
      } else if (!mode_arg.empty()) {
        return json_response(400, "{\"error\":\"mode must be full or incremental\"}");
      }
      std::string audit;
      const RelearnOutcome outcome = relearn_audited(&audit, mode);
      if (audit.empty()) {
        audit = "null";
      }
      const char* status = outcome == RelearnOutcome::kSwapped   ? "swapped"
                           : outcome == RelearnOutcome::kRefused ? "refused"
                                                                 : "degraded";
      const int code = outcome == RelearnOutcome::kSwapped ? 200 : 503;
      return json_response(code, std::string("{\"status\":\"") + status + "\",\"mode\":\"" +
                                     core::relearn_mode_name(mode) +
                                     "\",\"generation\":" + std::to_string(generation()) +
                                     ",\"audit\":" + audit + "}");
    }
    if (path == "/quit") {
      util::request_drain();
      return json_response(200, "{\"status\":\"draining\"}");
    }
    return {404, "text/plain; charset=utf-8", "unknown endpoint\n", {}};
  }
  return {405, "text/plain; charset=utf-8", "unsupported method\n", {}};
}

obs::HttpResponse ServeDaemon::handle_data(const obs::HttpRequest& request,
                                           Endpoint endpoint) {
  const Clock::time_point arrival = Clock::now();
  const bool recommend = endpoint == Endpoint::kRecommend;
  // Child of the listener's http.<path> root span; phases below (admission,
  // bulkhead, engine) nest under it, so one request reads as one tree.
  obs::ScopedSpan request_span(recommend ? "serve.recommend" : "serve.diff");
  (recommend ? requests_recommend_ : requests_diff_).inc();

  if (draining_.load()) {
    obs::TraceRecorder::global().mark_trace_error();
    return shed_response("draining");
  }

  // Phase spans: optional so one slot can close admission before opening
  // bulkhead without nesting scopes around every early return.
  std::optional<obs::ScopedSpan> phase_span;
  phase_span.emplace("serve.admission");

  // Admission: a bounded count of requests in the admission window. Shed
  // BEFORE doing any work — the point of load shedding is that rejected
  // requests are nearly free.
  const std::size_t in_flight = admitted_.fetch_add(1, std::memory_order_acq_rel) + 1;
  queue_depth_.set(static_cast<double>(in_flight));
  if (in_flight > options_.queue_high_water) {
    admitted_.fetch_sub(1, std::memory_order_acq_rel);
    queue_depth_.set(static_cast<double>(admitted_.load()));
    note_shed();
    obs::TraceRecorder::global().mark_trace_error();
    return shed_response("admission queue full");
  }
  struct AdmissionGuard {
    ServeDaemon* daemon;
    ~AdmissionGuard() {
      daemon->admitted_.fetch_sub(1, std::memory_order_acq_rel);
      daemon->queue_depth_.set(static_cast<double>(daemon->admitted_.load()));
    }
  } admission_guard{this};

  // Deadline: the client's budget, clamped; default when absent.
  std::int64_t deadline_ms = options_.default_deadline_ms;
  const std::string_view header = request.header("x-auric-deadline-ms");
  if (!header.empty()) {
    const std::optional<std::int64_t> parsed = parse_int(header);
    if (!parsed.has_value() || *parsed <= 0) {
      return json_response(400, "{\"error\":\"bad X-Auric-Deadline-Ms\"}");
    }
    deadline_ms = std::min<std::int64_t>(*parsed, options_.max_deadline_ms);
  }
  const Clock::time_point expiry = arrival + std::chrono::milliseconds(deadline_ms);

  // Parse the target carrier (and neighbor) once, before burning a bulkhead
  // slot on it.
  const std::string_view query = request.query();
  const std::optional<netsim::CarrierId> carrier =
      parse_carrier(util::query_param(query, "carrier"), topology_->carrier_count());
  if (!carrier.has_value()) {
    return json_response(400, "{\"error\":\"carrier must name a carrier in the inventory\"}");
  }
  netsim::CarrierId neighbor = netsim::kInvalidCarrier;
  const std::string_view neighbor_raw = recommend ? util::query_param(query, "neighbor") : "";
  if (!neighbor_raw.empty()) {
    const std::optional<netsim::CarrierId> parsed =
        parse_carrier(neighbor_raw, topology_->carrier_count());
    if (!parsed.has_value()) {
      return json_response(400, "{\"error\":\"neighbor must name a carrier\"}");
    }
    neighbor = *parsed;
  }

  // Bulkhead: per-market-shard concurrency cap. The same stable mapping the
  // sharded EMS uses, so a hot market saturates its own lane only.
  phase_span.reset();
  phase_span.emplace("serve.bulkhead");
  const int bulkheads = static_cast<int>(bulk_used_.size());
  const std::size_t lane = static_cast<std::size_t>(smartlaunch::shard_of_market(
      topology_->carriers[static_cast<std::size_t>(*carrier)].market, bulkheads));
  {
    std::unique_lock<std::mutex> lock(bulk_mu_);
    const bool got = bulk_cv_.wait_until(
        lock, expiry, [&] { return bulk_used_[lane] < options_.bulkhead_width; });
    if (!got) {
      // Expired waiting for a lane: dropped BEFORE dispatch, per the
      // deadline contract — no engine work was spent on it.
      deadline_expired_total_.inc();
      obs::TraceRecorder::global().mark_trace_error();
      return json_response(504, "{\"error\":\"deadline expired before dispatch\"}");
    }
    ++bulk_used_[lane];
  }
  phase_span.reset();

  // The engine or plan call runs right here, against a pinned engine
  // snapshot: it is bounded CPU work, so the connection thread that read
  // the request answers it.
  const std::shared_ptr<const EngineBundle> bundle = snapshot();
  obs::HttpResponse response;
  {
    // Named after the perfbench layer it times, so tracestats self-time
    // and the ledger use the same words.
    obs::ScopedSpan engine_span(recommend ? "core.recommend" : "smartlaunch.plan");
    try {
      if (options_.work_delay_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(options_.work_delay_ms));
      }
      response = compute(endpoint, *carrier, neighbor, *bundle);
    } catch (const std::exception& e) {
      errors_total_.inc();
      obs::TraceRecorder::global().mark_trace_error();
      std::string body = "{\"error\":\"";
      util::append_json_escaped(body, e.what());
      body += "\"}";
      response = json_response(500, std::move(body));
    }
  }
  {
    std::lock_guard<std::mutex> lock(bulk_mu_);
    --bulk_used_[lane];
  }
  bulk_cv_.notify_all();

  const Clock::time_point done = Clock::now();
  if (done > expiry) {
    // Mid-flight timeout: the call returned past the deadline, so the late
    // answer is discarded and the client gets the terminal 504 it was
    // promised.
    timeouts_total_.inc();
    obs::TraceRecorder::global().mark_trace_error();
    return json_response(504, "{\"error\":\"deadline expired in flight\"}");
  }
  const double latency_ms =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(done - arrival)
          .count();
  (recommend ? latency_recommend_ : latency_diff_).observe(latency_ms);
  return response;
}

obs::HttpResponse ServeDaemon::compute(Endpoint endpoint, netsim::CarrierId carrier,
                                       netsim::CarrierId neighbor,
                                       const EngineBundle& bundle) const {
  if (endpoint == Endpoint::kRecommend) {
    const std::vector<core::Recommendation> recs =
        neighbor == netsim::kInvalidCarrier
            ? bundle.engine->recommend_singular(carrier)
            : bundle.engine->recommend_pairwise(carrier, neighbor);
    // Rendered in place: one reserved buffer, to_chars numbers identical
    // to the printf forms (%g values, %.4f support and margin).
    std::string body;
    body.reserve(64 + recs.size() * 128);
    body += "{\"carrier\":";
    util::append_int(body, carrier);
    body += ",\"generation\":";
    util::append_int(body, bundle.generation);
    body += ",\"recommendations\":[";
    bool first = true;
    for (const core::Recommendation& rec : recs) {
      const config::ParamDef& def = catalog_->at(rec.param);
      if (!first) {
        body += ',';
      }
      first = false;
      body += "{\"param\":\"";
      util::append_json_escaped(body, def.name);
      body += '"';
      if (rec.value != config::kUnset) {
        body += ",\"value\":";
        util::append_general(body, def.domain.value(rec.value));
      }
      body += ",\"source\":\"";
      body += core::recommendation_source_name(rec.source);
      body += "\",\"votes\":";
      util::append_int(body, rec.votes);
      body += ",\"group_size\":";
      util::append_int(body, rec.group_size);
      body += ",\"support\":";
      util::append_fixed4(body, rec.support);
      body += ",\"margin\":";
      util::append_fixed4(body, rec.margin);
      body += '}';
    }
    body += "]}";
    return json_response(200, std::move(body));
  }

  // /diff: the SmartLaunch plan — vendor launch config vs Auric corrections.
  std::size_t slots = 0;
  const std::vector<smartlaunch::LaunchController::PlannedChange> changes =
      bundle.controller->plan_changes_detailed(carrier, nullptr, &slots);
  std::string body;
  body.reserve(96 + changes.size() * 160);
  body += "{\"carrier\":";
  util::append_int(body, carrier);
  body += ",\"generation\":";
  util::append_int(body, bundle.generation);
  body += ",\"slots\":";
  util::append_int(body, slots);
  body += ",\"changes\":[";
  bool first = true;
  for (const auto& change : changes) {
    const config::ParamDef& def = catalog_->at(change.slot.param);
    if (!first) {
      body += ',';
    }
    first = false;
    body += "{\"param\":\"";
    util::append_json_escaped(body, def.name);
    body += "\",\"mo_path\":\"";
    util::append_json_escaped(body, change.slot.mo_path);
    body += '"';
    if (change.vendor_value != config::kUnset) {
      body += ",\"vendor\":";
      util::append_general(body, def.domain.value(change.vendor_value));
    }
    if (change.new_value != config::kUnset) {
      body += ",\"new\":";
      util::append_general(body, def.domain.value(change.new_value));
    }
    body += '}';
  }
  body += "]}";
  return json_response(200, std::move(body));
}

}  // namespace auric::serve
