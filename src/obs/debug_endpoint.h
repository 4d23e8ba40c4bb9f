// The read-only debug endpoints, one body for both HTTP planes (the live
// plane, util::LivePlane, and the serve daemon):
//
//   GET /metrics   Prometheus text exposition of the registry
//   GET /varz      full JSON snapshot of every instrument
//   GET /tracez    recent spans, JSONL; ?trace_id= fetches one stitched
//                  trace, ?min_ms= lists tail-retained slow/error traces
//   GET /logz      the last lines util::log emitted (plain text)
//   GET /profilez  block ?seconds=N (default 1, max 30) sampling the
//                  process, then return flamegraph-collapsed stacks
//
// /healthz, /modelz and the index stay with each plane's own router.
#pragma once

#include <optional>
#include <string_view>

#include "obs/http_listener.h"
#include "obs/metrics.h"

namespace auric::obs {

/// Answers the endpoint at `path`, with `query` the string past '?'.
/// /tracez and /logz read the process-wide TraceRecorder and LogBuffer;
/// /profilez answers 501 when the profiler is compiled out, 409 when one is
/// already running and 400 on a bad `seconds`. Returns nullopt for any
/// other path, so the caller's router goes on.
std::optional<HttpResponse> debug_endpoint(std::string_view path, std::string_view query,
                                           const MetricsRegistry& registry);

}  // namespace auric::obs
