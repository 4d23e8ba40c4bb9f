// Open-loop HTTP load: requests go out on a seeded Poisson schedule whether
// or not earlier ones have come back, over a fixed number of connections.
//
// Every request is timed from when it was DUE, not from when it was sent: a
// request that waited for a free connection behind a stalled one carries the
// stall in its latency (no coordinated omission). The generator also records
// how late it sent each request, so a step where the generator itself fell
// behind can be told apart from one where the daemon did.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One scheduled request; times are seconds from the start of its step.
struct RequestRecord {
  double due = 0.0;     ///< scheduled send time
  double picked = 0.0;  ///< when a connection became free for it
  double sent = 0.0;    ///< when its bytes went out
  double done = 0.0;    ///< when the reply was read to the end
  int status = -1;      ///< HTTP status; 0 = transport failure; -1 = never sent
  bool was_sent() const { return status >= 0; }
};

/// Completion minus scheduled send time.
inline double latency_from_due_ms(const RequestRecord& r) { return (r.done - r.due) * 1e3; }
/// Send minus scheduled send time (includes waiting for a free connection).
inline double late_ms(const RequestRecord& r) { return (r.sent - r.due) * 1e3; }
/// The generator's own lag: send minus the later of due time and the moment
/// a connection was free for the request.
inline double generator_lag_ms(const RequestRecord& r) {
  return (r.sent - std::max(r.due, r.picked)) * 1e3;
}

/// A sent request that got no 200 counts as missing any latency limit: it
/// enters the latency sample at this value (the daemon's default deadline).
inline constexpr double kFailedLatencyMs = 1000.0;

/// Seeded Poisson arrival times in [0, duration_s) at `rate` per second.
std::vector<double> poisson_arrivals(double rate, double duration_s, std::uint64_t seed);

/// Sends `targets[i]` at `due[i]` over at most `connections` concurrent
/// connections to 127.0.0.1:`port`. Stops taking new requests once one
/// would go out more than `abort_late_s` after its due time (a backlog that
/// will not clear); the rest stay unsent (status -1). `generator_cpu_s`,
/// when non-null, receives the CPU time the connection threads used.
std::vector<RequestRecord> send_open_loop(std::uint16_t port, int connections,
                                          const std::vector<double>& due,
                                          const std::vector<std::string>& targets,
                                          double abort_late_s = 0.25,
                                          double* generator_cpu_s = nullptr);

/// One step of load at a fixed offered rate.
struct StepStats {
  double rate = 0.0;
  double duration_s = 0.0;
  std::size_t scheduled = 0;
  std::size_t sent = 0;
  std::size_t failed = 0;           ///< sent requests without a 200
  std::vector<double> latency_ms;   ///< every sent request, timed from its due time
  double p50_ms = 0.0;
  double p99_ms = 0.0;              ///< NaN below 1,000 samples (p99 unsupported)
  /// Median over consecutive windows of >= 1.25 s (by due time) of each
  /// window's p99; windows under 1,000 samples are skipped; NaN when none
  /// qualifies. Steadier than one p99 when the host stalls now and then.
  double windowed_p99_ms = 0.0;
  std::size_t p99_windows = 0;
  /// Process CPU time per sent request, minus the generator's own threads
  /// (set by the caller that measured it).
  double cpu_ms_per_request = 0.0;
  double late_p99_ms = 0.0;         ///< p99 of send minus due
  double generator_lag_p99_ms = 0.0;
  bool backlog = false;
  bool generator_valid = true;
};

/// True when the daemon fell behind during a step: scheduled requests never
/// went out, or the send delay over the step's last quarter rose clearly
/// above its first quarter (a queue that grows instead of clearing).
bool growing_backlog(const std::vector<RequestRecord>& records);

/// Summarizes one step. The generator is valid when its own lag p99 stays
/// within `max_generator_lag_ms` (a tenth of the 20 ms serve limit) and the
/// rate sits below 90% of its calibrated `generator_ceiling` (0 = not
/// calibrated).
StepStats summarize_step(double rate, double duration_s,
                         const std::vector<RequestRecord>& records, double generator_ceiling,
                         double max_generator_lag_ms = 2.0);

/// The highest rate among generator-valid steps whose p99 is within
/// `p99_limit_ms`, with no failed request and no growing backlog; 0 when no
/// step qualifies.
double select_max_qps(const std::vector<StepStats>& steps, double p99_limit_ms);

}  // namespace perfbench
