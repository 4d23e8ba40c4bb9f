// ServeDaemon: the overload-safe online request plane ("Auric-as-a-service").
//
// A long-lived daemon hosting a resident AuricEngine + inventory behind the
// shared obs::HttpListener, answering
//
//   GET  /recommend?carrier=N[&neighbor=M]   vote-backed recommendations, JSON
//   GET  /diff?carrier=N                     SmartLaunch plan (vendor vs Auric)
//   GET  /healthz                            ok|degraded|overloaded|draining
//   GET  /metrics, /varz                     registry exposition
//   GET  /tracez, /logz, /profilez           recent spans, log tail, profile
//                                            (obs::debug_endpoint, shared
//                                            with the live plane)
//   GET  /modelz                             model-quality plane: ModelWatch
//                                            telemetry + the last relearn audit
//   POST /relearn                            rebuild, shadow-audit, hot-swap
//   POST /quit                               request a graceful drain
//
// Robustness is layered in request order (DESIGN.md §15):
//   admission   a bounded count of in-flight requests; past the high-water
//               mark new work is shed with 503 + Retry-After instead of
//               queueing without bound
//   deadline    every request carries a budget (X-Auric-Deadline-Ms header,
//               clamped); requests that expire while waiting for a bulkhead
//               slot are dropped BEFORE dispatch (504), and a request whose
//               engine call returns past its deadline answers 504 with the
//               late result discarded
//   bulkhead    per-market-shard concurrency caps (smartlaunch's
//               shard_of_market) so one hot market cannot starve the rest
//   snapshot    handlers run against an RCU-style engine snapshot
//               (std::shared_ptr<const EngineBundle>); relearn builds a new
//               bundle off to the side and flips the pointer, so in-flight
//               requests finish on the engine they started with, and a
//               FAILED relearn keeps serving the last-good bundle with
//               /healthz flipped to degraded
//   audit       before a relearn flips the bundle, core::diff_engines replays
//               a seeded carrier sample through the old and new engines; a
//               flip rate above ServeOptions::max_flip_rate REFUSES the swap
//               (last-good kept, degraded) — the shadow-audit of DESIGN.md
//               §17. The audit report rides the /relearn response and /modelz.
//   drain       stop admitting, finish in-flight work, answer stragglers
//               with 503, exit 0 (SIGTERM/SIGINT via util::drain)
//
// Every layer runs on the HTTP connection thread that read the request:
// the engine or plan call is bounded CPU work, so there is no hand-off to a
// worker pool, and admission alone bounds concurrency under overload.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "config/ground_truth.h"
#include "config/rulebook.h"
#include "core/engine.h"
#include "core/model_watch.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"
#include "obs/http_listener.h"
#include "obs/metrics.h"
#include "smartlaunch/controller.h"

namespace auric::obs {
class RuleEngine;
class Sampler;
}  // namespace auric::obs

namespace auric::serve {

struct ServeOptions {
  /// Listener options; `http.threads` connection threads answer data
  /// requests themselves, so it is the data-path concurrency ceiling.
  obs::HttpListenerOptions http;
  /// Admission high-water mark: requests in flight past this are shed with
  /// 503 + Retry-After.
  std::size_t queue_high_water = 64;
  /// Per-market-shard bulkheads and the concurrency cap of each.
  int bulkheads = 4;
  int bulkhead_width = 8;
  /// Request deadline when the client sends no X-Auric-Deadline-Ms header,
  /// and the clamp applied when it does.
  int default_deadline_ms = 1000;
  int max_deadline_ms = 10000;
  /// Artificial per-request service delay, slept on the connection thread
  /// inside the engine call (capacity shaping for overload tests and the CI
  /// soak; 0 in production).
  int work_delay_ms = 0;
  /// A shed inside this trailing window makes /healthz report "overloaded".
  int overload_grace_ms = 2000;
  /// Vendor-fault seed for the LaunchController behind /diff.
  std::uint64_t seed = 4242;
  /// Shadow-audit breadth: carriers replayed through the old AND new engine
  /// before a relearn flips the bundle (0 = every carrier). Seeded by `seed`,
  /// so repeated relearns audit the same sample.
  std::size_t audit_sample = 48;
  /// Relearns whose audited flip rate EXCEEDS this refuse the swap: the
  /// last-good bundle keeps serving and /healthz reports degraded until a
  /// later relearn passes. 1.0 (the default) disables the guard — a rate can
  /// equal but never exceed it.
  double max_flip_rate = 1.0;
  /// Default relearn path. kIncremental clones the serving engine and applies
  /// the inventory's slot deltas in place (AuricEngine::incremental_relearn)
  /// instead of relearning every table from scratch; the clone still rides
  /// the full shadow-audit + flip-rate gate before the RCU flip. Overridable
  /// per request with POST /relearn?mode=full|incremental.
  core::RelearnMode relearn_mode = core::RelearnMode::kFull;
};

class ServeDaemon {
 public:
  using Options = ServeOptions;
  /// Builds fresh engine bundles; injectable so tests can fail a relearn.
  using EngineBuilder = std::function<std::unique_ptr<core::AuricEngine>()>;

  ServeDaemon(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
              const config::ParamCatalog& catalog, const config::ConfigAssignment& assignment,
              const config::GroundTruthModel& ground_truth, Options options = {},
              obs::MetricsRegistry& registry = obs::MetricsRegistry::global());
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Replaces the engine builder (test hook for relearn failures). The
  /// default builder learns an AuricEngine from the resident inventory.
  void set_engine_builder(EngineBuilder builder);

  /// Optional health sources: when set, firing alert rules flip /healthz to
  /// 503 "alerting". Set before start().
  void set_rule_engine(const obs::RuleEngine* rules) { rules_ = rules; }

  /// Builds the initial engine bundle (generation 1) if none exists yet.
  /// start() calls this; exposed so tests and benches can exercise handle()
  /// without a socket.
  void warm_up();

  /// warm_up() + bind the listener and start answering. Throws
  /// std::runtime_error when the port cannot be bound.
  void start();

  /// Graceful drain: stop admitting, wait for in-flight requests, answer
  /// queued stragglers with 503, stop the listener. Idempotent.
  void drain();

  bool running() const { return listener_ != nullptr && listener_->running(); }
  bool draining() const { return draining_.load(); }
  bool degraded() const { return degraded_.load(); }
  std::uint16_t port() const { return listener_ == nullptr ? 0 : listener_->port(); }
  const Options& options() const { return options_; }

  /// Engine generation currently served (0 before warm_up()).
  std::uint64_t generation() const;

  /// How a relearn ended: swapped in, builder threw (last-good kept), or the
  /// shadow-audit refused the swap (last-good kept, degraded).
  enum class RelearnOutcome { kSwapped, kFailed, kRefused };

  /// Rebuilds the engine via the builder, shadow-audits the fresh bundle
  /// against the serving one (core::diff_engines over a seeded carrier
  /// sample), and hot-swaps it in unless the audited flip rate exceeds
  /// Options::max_flip_rate. `audit_json`, when non-null, receives the
  /// EngineDiffReport JSON (empty when no audit ran — first warm-up or a
  /// failed build). Serialized; callable while serving.
  RelearnOutcome relearn_audited(std::string* audit_json) {
    return relearn_audited(audit_json, options_.relearn_mode);
  }

  /// Same, with an explicit path: kFull rebuilds through the builder;
  /// kIncremental clones the serving engine and delta-updates it against the
  /// resident inventory (which the owner may have refreshed in place — the
  /// daemon reads it, never writes it). Falls back to a full build when no
  /// engine is serving yet. Either way the fresh bundle is shadow-audited and
  /// the flip-rate cap enforced before the swap.
  RelearnOutcome relearn_audited(std::string* audit_json, core::RelearnMode mode);

  /// relearn_audited() == kSwapped. Kept for callers that only care whether
  /// a usable engine is being served.
  bool relearn();

  /// The per-parameter model telemetry every served recommendation records
  /// into (DESIGN.md §17). Relearn rolls its drift day.
  const core::ModelWatch& model_watch() const { return watch_; }

  /// The /modelz document: generation, degraded flag, the last relearn audit
  /// (null before the first relearn) and the ModelWatch snapshot.
  std::string modelz_json() const;

  /// Requests in the admission window right now.
  std::size_t admitted() const { return admitted_.load(); }

  /// Responses written over the socket path (0 when handle() is driven
  /// directly).
  std::uint64_t requests_served() const {
    return listener_ == nullptr ? 0 : listener_->requests_served();
  }

  /// The full request path (admission -> deadline -> bulkhead -> snapshot
  /// -> engine -> render), run on the calling thread; shared by the socket
  /// path, tests, and benches.
  obs::HttpResponse handle(const obs::HttpRequest& request);

 private:
  /// One resident engine + its controller; flipped atomically on relearn.
  struct EngineBundle {
    std::unique_ptr<core::AuricEngine> engine;
    std::unique_ptr<smartlaunch::LaunchController> controller;
    std::uint64_t generation = 0;
  };

  enum class Endpoint { kRecommend, kDiff };

  std::shared_ptr<const EngineBundle> snapshot() const;
  std::unique_ptr<EngineBundle> build_bundle();

  obs::HttpResponse handle_data(const obs::HttpRequest& request, Endpoint endpoint);
  /// The engine or plan call plus its JSON body. `neighbor` is
  /// kInvalidCarrier for singular recommendations (and ignored by /diff).
  obs::HttpResponse compute(Endpoint endpoint, netsim::CarrierId carrier,
                            netsim::CarrierId neighbor, const EngineBundle& bundle) const;
  obs::HttpResponse healthz() const;
  void note_shed();
  bool recently_shed() const;

  const netsim::Topology* topology_;
  const netsim::AttributeSchema* schema_;
  const config::ParamCatalog* catalog_;
  const config::ConfigAssignment* assignment_;
  config::Rulebook rulebook_;
  Options options_;
  obs::MetricsRegistry* registry_;
  core::ModelWatch watch_;  ///< attached to every bundle in build_bundle()
  const obs::RuleEngine* rules_ = nullptr;

  /// Last relearn audit JSON (empty until the first audited relearn).
  mutable std::mutex audit_mu_;
  std::string last_audit_;

  mutable std::mutex bundle_mu_;
  std::shared_ptr<const EngineBundle> bundle_;
  std::mutex relearn_mu_;  ///< serializes concurrent relearns
  EngineBuilder builder_;

  std::unique_ptr<obs::HttpListener> listener_;

  std::atomic<bool> draining_{false};
  std::atomic<bool> degraded_{false};
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::int64_t> last_shed_ms_{-1};  ///< steady-clock ms; -1 = never

  std::mutex bulk_mu_;
  std::condition_variable bulk_cv_;
  std::vector<int> bulk_used_;

  // Instruments (all owned by the registry).
  obs::Counter& requests_recommend_;
  obs::Counter& requests_diff_;
  obs::Counter& requests_healthz_;
  obs::Counter& shed_total_;
  obs::Counter& deadline_expired_total_;
  obs::Counter& timeouts_total_;
  obs::Counter& engine_swaps_total_;
  obs::Counter& relearn_failures_total_;
  obs::Counter& relearn_refused_total_;
  obs::Counter& errors_total_;
  obs::Gauge& queue_depth_;
  obs::Gauge& degraded_gauge_;
  obs::Gauge& up_gauge_;
  obs::Gauge& generation_gauge_;
  obs::Gauge& flip_rate_gauge_;
  obs::Histogram& latency_recommend_;
  obs::Histogram& latency_diff_;
};

}  // namespace auric::serve
