// Embedded HTTP/1.1 endpoint for the live observability plane.
//
// A replay or launch run that only writes metrics files at exit cannot be
// watched; the MetricsServer makes the process scrapeable WHILE it runs, the
// way Prometheus expects exporters to behave. The socket machinery lives in
// obs::HttpListener (shared with the serve plane); this class is the
// routing layer, bound to loopback:
//
//   GET /metrics   Prometheus text exposition of the registry
//   GET /healthz   RuleEngine verdict JSON; 200 when healthy, 503 firing
//   GET /varz      full JSON snapshot of every instrument
//   GET /tracez    recent spans, JSONL; ?trace_id= fetches one stitched
//                  trace, ?min_ms= lists tail-retained slow/error traces
//   GET /logz      the last lines util::log emitted (plain text)
//   GET /profilez  block ?seconds=N (default 1, max 30) sampling the
//                  process, then return flamegraph-collapsed stacks
//
// Port 0 requests an ephemeral port; port() reports what the kernel chose,
// so tests and parallel CI jobs never collide. Requests are handled by a
// single worker — scrape traffic is a few requests per second, not a web
// tier.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "obs/http_listener.h"
#include "obs/metrics.h"

namespace auric::obs {

class RuleEngine;
class TraceRecorder;
class LogBuffer;

struct MetricsServerOptions {
  /// Loopback only by default; this is an operator peephole, not a
  /// service.
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port (see port()).
  std::uint16_t port = 0;
  /// Requests larger than this are answered 413 and dropped.
  std::size_t max_request_bytes = 8192;
};

class MetricsServer {
 public:
  using Options = MetricsServerOptions;

  explicit MetricsServer(const MetricsRegistry& registry = MetricsRegistry::global(),
                         Options options = {});
  ~MetricsServer();
  MetricsServer(const MetricsServer&) = delete;
  MetricsServer& operator=(const MetricsServer&) = delete;

  /// Optional data sources; null disables the corresponding endpoint (404).
  /// Set before start() — the pointers are read from the server thread.
  void set_rule_engine(const RuleEngine* engine) { rules_ = engine; }
  void set_trace_recorder(const TraceRecorder* recorder) { traces_ = recorder; }
  void set_log_buffer(const LogBuffer* buffer) { logs_ = buffer; }

  /// Registers (or replaces) an auxiliary GET endpoint at `path` (leading
  /// slash required, e.g. "/modelz") whose application/json body is rendered
  /// by `source` at request time; an empty function unregisters. Unlike the
  /// built-in sources this is mutex-guarded, so callers that only learn
  /// their data source after the plane is up (replay wiring /modelz to its
  /// ModelWatch) may register mid-run. The source must stay valid until
  /// stop() or unregistration.
  void set_json_source(std::string path, std::function<std::string()> source);

  /// Binds, listens and launches the server thread. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();
  /// Stops the thread and closes the socket; idempotent.
  void stop();
  bool running() const { return listener_ != nullptr && listener_->running(); }

  /// The bound port (the kernel's pick when Options::port was 0); 0 before
  /// start().
  std::uint16_t port() const { return listener_ == nullptr ? 0 : listener_->port(); }
  const Options& options() const { return options_; }

  std::uint64_t requests_served() const {
    return listener_ == nullptr ? 0 : listener_->requests_served();
  }

  /// One response; exposed so tests can exercise routing without a socket.
  using Response = HttpResponse;

  /// Routes one request line (method + target; /tracez and /profilez read
  /// the query string) to an endpoint. The socket path and tests share
  /// this.
  Response handle(std::string_view method, std::string_view target) const;

 private:
  const MetricsRegistry* registry_;
  Options options_;
  const RuleEngine* rules_ = nullptr;
  const TraceRecorder* traces_ = nullptr;
  const LogBuffer* logs_ = nullptr;

  /// Auxiliary JSON endpoints; guarded (registration can race the server
  /// thread).
  mutable std::mutex extra_mu_;
  std::map<std::string, std::function<std::string()>, std::less<>> extra_;

  std::unique_ptr<HttpListener> listener_;
};

/// The read-only debug endpoints, one body for both HTTP planes (this
/// server and the serve daemon): GET /metrics, /varz, /tracez, /logz and
/// /profilez at `path`, with `query` the string past '?'. A null `traces`
/// or `logs` answers its endpoint 404; /profilez answers 501 when the
/// profiler is compiled out, 409 when one is already running and 400 on a
/// bad `seconds`. Returns nullopt for any other path, so the caller's router
/// goes on; /healthz, the index and extra endpoints stay the caller's.
std::optional<HttpResponse> debug_endpoint(std::string_view path, std::string_view query,
                                           const MetricsRegistry& registry,
                                           const TraceRecorder* traces, const LogBuffer* logs);

}  // namespace auric::obs
