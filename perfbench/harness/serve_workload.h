// The `serve` workload: an in-process ServeDaemon with `auric serve`'s
// defaults (8 HTTP threads, 2 workers, 4 bulkheads, resident engine and
// ModelWatch) under open-loop Poisson traffic over loopback.
//
// Mix: 70% /recommend?carrier=, 10% /recommend?carrier=&neighbor= (an X2
// neighbor), 20% /diff?carrier=; carriers uniform over the inventory; at
// most 4 concurrent connections. The untraced run holds a fixed offered rate
// of 1,000 req/s; the traced run also climbs a rate ladder to the highest
// rate whose p99 stays within 20 ms without a growing backlog. (On a 4-vCPU
// VM the p99 at 1,000 req/s alone is already ~5 ms, so a 5 ms limit would
// rank host noise, not capacity.)
//
// `serve-hot` is the same daemon, mix and rate with the carriers drawn
// uniformly from a seeded hot set of 256 (1.9% of the inventory), so the
// engine's working set stays in cache. A change to the serve plane (HTTP,
// admission, bulkheads, pool handoff, render) shows on both; a change to how
// the engine reaches its tables in memory, or an answer cache, shows on the
// two differently.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "config/rulebook.h"
#include "core/engine.h"
#include "harness/open_loop.h"
#include "harness/report.h"
#include "harness/world.h"
#include "serve/daemon.h"
#include "smartlaunch/controller.h"

namespace perfbench {

inline constexpr int kServeConnections = 4;
inline constexpr double kFixedRate = 1000.0;
inline constexpr double kP99LimitMs = 20.0;
/// How late a request may go out before the generator gives up on the rest
/// of its step. At the fixed rate it is generous: a host stall of a few
/// hundred milliseconds only delays requests (and shows in their latency);
/// only a daemon that cannot keep up for seconds loses requests. Ladder
/// steps give up early, since a backlog there is how the limit shows.
inline constexpr double kFixedAbortLateS = 5.0;
inline constexpr double kLadderAbortLateS = 0.25;
/// Carriers in the `serve-hot` workload's hot set.
inline constexpr std::size_t kHotCarriers = 256;

struct ServeTarget {
  enum Kind { kRecommend = 0, kRecommendPair, kDiff };
  Kind kind = kRecommend;
  int carrier = 0;
  int neighbor = -1;
  std::string path;
};

/// `count` targets of the workload mix, seeded. Carriers are uniform over
/// `pool`, or over the whole inventory when `pool` is empty.
std::vector<ServeTarget> draw_targets(const World& world, std::uint64_t seed, std::size_t count,
                                      const std::vector<int>& pool = {});

/// The daemon plus an independent controller over the same engine, used to
/// render the answers the daemon must give.
struct ServeStack {
  /// Starts the daemon on an ephemeral port; its first bundle adopts `engine`.
  ServeStack(const World& world, std::unique_ptr<auric::core::AuricEngine> engine);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  const World* world;
  const auric::core::AuricEngine* engine;  ///< owned by the daemon's bundle
  std::unique_ptr<auric::serve::ServeDaemon> daemon;
  auric::config::Rulebook rulebook;
  std::unique_ptr<auric::smartlaunch::LaunchController> controller;
  /// The carriers timed traffic draws from; empty = the whole inventory.
  std::vector<int> traffic_pool;

  std::uint16_t port() const { return daemon->port(); }
  /// The body the daemon must answer `target` with (generation 1).
  std::string expected_body(const ServeTarget& target) const;
  /// The engine or plan call behind `target`, made directly (timed by
  /// probes to split daemon overhead from engine work).
  void direct_call(const ServeTarget& target) const;
};

/// One open-loop step of `seconds` at `rate` with the workload mix.
StepStats run_step(const ServeStack& stack, double rate, double seconds, std::uint64_t seed,
                   double generator_ceiling, double abort_late_s);

/// The generator's own ceiling: requests per second it completes against a
/// trivial in-process HttpListener handler (same thread count as serve).
double calibrate_generator();

/// Fetches a fixed probe set (the same whatever the workload seed) over the
/// socket and checks every body against the directly rendered answer;
/// returns the digest of the bodies.
std::string check_probes(const ServeStack& stack, WorkloadResult& result);

/// Adds a fixed-rate step's requests to the result: every scheduled request
/// is attempted, and one that got no 200 or was never sent (the generator
/// gave up on a backlog) failed.
void count_step(const StepStats& step, WorkloadResult& result);

/// Adds a ladder step's requests to the result: only the ones sent. A step
/// above capacity is abandoned by design; its unsent requests are the
/// ladder's measurement, not operations that failed.
void count_ladder_step(const StepStats& step, WorkloadResult& result);

/// Prints the step's p99 figure and returns it: the median of per-window
/// p99s when a window holds 1,000 samples, else the highest percentile the
/// whole step supports, stated with its sample count.
double report_p99(const StepStats& step);

/// The rate ladder above a fixed-rate step: x1.25 steps bracket the highest
/// rate meeting the p99 limit with no growing backlog and no failures,
/// bisection narrows the bracket to 2.5%, and a failed step is retried
/// once. Stops early when `budget_s` runs out.
struct Ladder {
  std::vector<StepStats> steps;  ///< in the order run (the fixed step excluded)
  double max_qps = 0.0;          ///< 0 when not even the fixed rate met the limit
};

Ladder climb_ladder(const ServeStack& stack, const StepStats& fixed, double budget_s,
                    std::uint64_t seed, double generator_ceiling);

/// True for the workloads served by a ServeDaemon (`serve`, `serve-hot`).
bool is_serve_workload(const std::string& workload);

/// The carriers `workload`'s timed traffic draws from: the seeded hot set on
/// `serve-hot`, empty (the whole inventory) otherwise.
std::vector<int> traffic_pool(const World& world, const std::string& workload,
                              std::uint64_t seed);

/// The untraced `serve` / `serve-hot` run: the fixed offered rate for the
/// whole measuring time (the ladder runs in the traced run).
WorkloadResult run_serve(const RunConfig& config);

}  // namespace perfbench
