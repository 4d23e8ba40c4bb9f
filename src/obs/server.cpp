#include "obs/server.h"

#include "obs/log_buffer.h"
#include "obs/profiler.h"
#include "obs/rules.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace auric::obs {

namespace {

constexpr const char* kPlainText = "text/plain; charset=utf-8";

/// /profilez: parses `seconds` out of `query` (default 1, clamped to
/// [1, 30]), runs profile_process, renders a "# samples=N dropped=M" header
/// plus folded stacks.
std::string profilez_text(std::string_view query, int* status) {
  *status = 200;
  if (!Profiler::supported()) {
    *status = 501;
    return "profiler unavailable in this build (sanitizer or unsupported platform)\n";
  }
  int seconds = 1;
  const std::string_view raw = util::query_param(query, "seconds");
  if (!raw.empty()) {
    try {
      seconds = std::stoi(std::string(raw));
    } catch (const std::exception&) {
      *status = 400;
      return "bad seconds parameter\n";
    }
  }
  seconds = seconds < 1 ? 1 : (seconds > 30 ? 30 : seconds);
  const ProfileReport report = profile_process(seconds * 1000);
  if (report.samples == 0 && report.folded.empty() && Profiler::global().running()) {
    *status = 409;
    return "a profile is already running\n";
  }
  std::string out = "# samples=" + std::to_string(report.samples) +
                    " dropped=" + std::to_string(report.dropped) + "\n";
  out += report.folded;
  return out;
}

}  // namespace

std::optional<HttpResponse> debug_endpoint(std::string_view path, std::string_view query,
                                           const MetricsRegistry& registry,
                                           const TraceRecorder* traces, const LogBuffer* logs) {
  if (path == "/metrics") {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        registry.prometheus_text(), {}};
  }
  if (path == "/varz") {
    return HttpResponse{200, "application/json", registry.json_text(), {}};
  }
  if (path == "/tracez") {
    if (traces == nullptr) return HttpResponse{404, kPlainText, "tracing not wired\n", {}};
    return HttpResponse{200, "application/x-ndjson", tracez_text(*traces, query), {}};
  }
  if (path == "/logz") {
    if (logs == nullptr) return HttpResponse{404, kPlainText, "log buffer not wired\n", {}};
    return HttpResponse{200, kPlainText, logs->text(), {}};
  }
  if (path == "/profilez") {
    int status = 200;
    std::string body = profilez_text(query, &status);
    return HttpResponse{status, kPlainText, std::move(body), {}};
  }
  return std::nullopt;
}

MetricsServer::MetricsServer(const MetricsRegistry& registry, Options options)
    : registry_(&registry), options_(std::move(options)) {}

MetricsServer::~MetricsServer() { stop(); }

void MetricsServer::start() {
  if (running()) {
    return;
  }
  HttpListenerOptions lopts;
  lopts.bind_address = options_.bind_address;
  lopts.port = options_.port;
  lopts.max_request_bytes = options_.max_request_bytes;
  lopts.name = "metrics server";
  listener_ = std::make_unique<HttpListener>(
      [this](const HttpRequest& request) { return handle(request.method, request.target); },
      std::move(lopts));
  try {
    listener_->start();
  } catch (...) {
    listener_.reset();
    throw;
  }
}

void MetricsServer::stop() {
  if (listener_ != nullptr) {
    listener_->stop();
  }
}

void MetricsServer::set_json_source(std::string path, std::function<std::string()> source) {
  std::lock_guard<std::mutex> lock(extra_mu_);
  if (source) {
    extra_[std::move(path)] = std::move(source);
  } else {
    extra_.erase(path);
  }
}

MetricsServer::Response MetricsServer::handle(std::string_view method,
                                              std::string_view target) const {
  if (method != "GET") {
    return {405, kPlainText, "only GET is supported\n", {}};
  }
  // Split the query string off; /tracez and /profilez take parameters, the
  // rest ignore them.
  std::string_view query;
  const std::size_t qpos = target.find('?');
  if (qpos != std::string_view::npos) {
    query = target.substr(qpos + 1);
    target = target.substr(0, qpos);
  }
  if (target == "/healthz") {
    if (rules_ == nullptr) {
      // No rule engine wired: alive == healthy.
      return {200, "application/json", "{\"status\":\"ok\",\"rules\":0,\"firing\":[]}", {}};
    }
    return {rules_->healthy() ? 200 : 503, "application/json", rules_->healthz_json(), {}};
  }
  if (std::optional<Response> debug = debug_endpoint(target, query, *registry_, traces_, logs_)) {
    return std::move(*debug);
  }
  if (target == "/" || target.empty()) {
    std::string index = "auric live plane\n/metrics /healthz /varz /tracez /logz /profilez";
    {
      std::lock_guard<std::mutex> lock(extra_mu_);
      for (const auto& [path, source] : extra_) index += " " + path;
    }
    index += "\n";
    return {200, kPlainText, std::move(index), {}};
  }
  {
    // Auxiliary endpoints (e.g. /modelz): copy the source out under the
    // lock, render outside it so a slow source never blocks registration.
    std::function<std::string()> source;
    {
      std::lock_guard<std::mutex> lock(extra_mu_);
      const auto it = extra_.find(target);
      if (it != extra_.end()) source = it->second;
    }
    if (source) {
      return {200, "application/json", source(), {}};
    }
  }
  return {404, kPlainText, "unknown endpoint\n", {}};
}

}  // namespace auric::obs
