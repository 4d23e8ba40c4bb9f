#include "obs/debug_endpoint.h"

#include "obs/log_buffer.h"
#include "obs/profiler.h"
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
                                           const MetricsRegistry& registry) {
  if (path == "/metrics") {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        registry.prometheus_text(), {}};
  }
  if (path == "/varz") {
    return HttpResponse{200, "application/json", registry.json_text(), {}};
  }
  if (path == "/tracez") {
    return HttpResponse{200, "application/x-ndjson", tracez_text(TraceRecorder::global(), query),
                        {}};
  }
  if (path == "/logz") {
    return HttpResponse{200, kPlainText, LogBuffer::global().text(), {}};
  }
  if (path == "/profilez") {
    int status = 200;
    std::string body = profilez_text(query, &status);
    return HttpResponse{status, kPlainText, std::move(body), {}};
  }
  return std::nullopt;
}

}  // namespace auric::obs
