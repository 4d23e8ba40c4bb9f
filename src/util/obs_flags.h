// The live observability plane: one object per process, and the flags that
// configure it.
//
// Every entry point that can run for minutes (the auric CLI subcommands,
// both smartlaunch benches, the replay driver) takes the same six flags:
//
//   --serve-metrics[=PORT]   bind the plane's HTTP listener (/healthz,
//                            /metrics, /varz, /tracez, /logz, /profilez,
//                            /modelz); bare flag or PORT 0 picks an
//                            ephemeral port, logged at start. `auric serve`
//                            refuses it: its daemon answers the same
//                            endpoints on --port.
//   --sample-interval-ms N   sampler cadence (default 100)
//   --rules FILE             alert rules CSV (obs/rules.h) evaluated every
//                            sample tick; their verdict backs /healthz
//   --series-out FILE        dump the sampled time series as CSV at exit
//   --profile-out FILE       profile the whole run (SIGPROF sampler); write
//                            flamegraph-collapsed stacks at exit
//   --trace-out FILE         dump the span ring as JSONL at exit (the
//                            `auric tracestats` input)
//
// The sampler and rule engine run whenever --rules, --series-out or
// --serve-metrics is given; the listener binds only with --serve-metrics.
// Lives in util, not obs, because it parses util::Args and logs through
// util::log, and obs sits below util.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/http_listener.h"
#include "obs/metrics.h"
#include "util/args.h"

namespace auric::obs {
class Sampler;
class RuleEngine;
}  // namespace auric::obs

namespace auric::util {

struct LivePlaneOptions {
  /// --serve-metrics: bind the HTTP listener on 127.0.0.1:port.
  bool serve = false;
  /// Listener port (0 = ephemeral; see LivePlane::port()).
  std::uint16_t port = 0;
  /// Sampler cadence; <= 0 disables the background tick thread (manual
  /// sampler()->tick() only — deterministic tests).
  double sample_interval_ms = 100.0;
  /// Alert rules file; empty = no rules, and /healthz reports ok while the
  /// process is alive.
  std::string rules_file;
  /// Where stop() writes the sampled series CSV; empty = no dump.
  std::string series_out;
  /// Where stop() writes the whole-run CPU profile; empty = no profiling.
  /// Inactive (with a warning) when the profiler is compiled out.
  std::string profile_out;
  /// Where stop() writes the span JSONL; empty = no dump.
  std::string trace_out;

  /// True when the sampler and rule engine run.
  bool samples() const { return serve || !rules_file.empty() || !series_out.empty(); }
};

/// Declares the six flags above on `args` (so check_unknown() accepts them)
/// and returns the resulting options. --serve-metrics accepts a bare flag
/// ("true"), yes/no, or a port number; anything else throws
/// std::invalid_argument.
LivePlaneOptions declare_live_plane_flags(Args& args);

class LivePlane {
 public:
  /// Loads --rules (a file that does not load throws, naming file:line),
  /// builds the sampler and starts the --profile-out profiler. Nothing
  /// ticks or listens until start(). A default-constructed plane is inert:
  /// handle() still routes, over `registry`.
  explicit LivePlane(LivePlaneOptions options = {},
                     obs::MetricsRegistry& registry = obs::MetricsRegistry::global());
  ~LivePlane();
  LivePlane(const LivePlane&) = delete;
  LivePlane& operator=(const LivePlane&) = delete;

  /// Binds the listener (with --serve-metrics; throws when the port cannot
  /// be bound), starts the sampler thread and logs the plane's address.
  /// Idempotent.
  void start();
  /// Stops the listener and sampler, then writes --series-out (after one
  /// final tick), --profile-out and --trace-out; the destructor calls it.
  /// Idempotent.
  void stop();

  /// Null unless options().samples().
  obs::Sampler* sampler() { return sampler_.get(); }
  obs::RuleEngine* rules() { return rules_.get(); }

  bool listening() const { return listener_ != nullptr && listener_->running(); }
  /// The bound port (the kernel's pick for port 0); 0 before start() or
  /// without --serve-metrics.
  std::uint16_t port() const { return listener_ == nullptr ? 0 : listener_->port(); }
  std::uint64_t requests_served() const {
    return listener_ == nullptr ? 0 : listener_->requests_served();
  }
  const LivePlaneOptions& options() const { return options_; }

  /// Serves `source`'s JSON at GET /modelz; an empty function unregisters.
  /// Mutex-guarded, so a caller that learns its source mid-run (replay's
  /// ModelWatch) may register while the listener runs. The source must stay
  /// valid until it is unregistered or the plane stops.
  void set_modelz(std::function<std::string()> source);

  /// Routes one request: /healthz (the rule verdict; 503 while a rule
  /// fires), then obs::debug_endpoint, then /modelz, then the index. The
  /// listener and tests share this.
  obs::HttpResponse handle(std::string_view method, std::string_view target) const;

 private:
  LivePlaneOptions options_;
  obs::MetricsRegistry* registry_;
  std::unique_ptr<obs::RuleEngine> rules_;
  mutable std::mutex modelz_mu_;
  std::function<std::string()> modelz_;
  // The threads last: the sampler's reads rules_, the listener's all of the
  // above.
  std::unique_ptr<obs::Sampler> sampler_;
  std::unique_ptr<obs::HttpListener> listener_;
  bool profiling_ = false;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace auric::util
