// In-process sampling profiler: where do the milliseconds go?
//
// Histograms say a /recommend request spent 40ms somewhere; traces say which
// span; the profiler says which *code*. A SIGPROF interval timer samples the
// process's CPU time at a fixed rate, the signal handler captures the call
// stack of whichever thread the kernel charged, and stop() folds the raw
// stacks into flamegraph-collapsed lines:
//
//   main;auric::serve::ServeDaemon::compute;auric::RecommendEngine::score 42
//
// one line per unique stack, outermost frame first, trailing sample count —
// the exact input `flamegraph.pl` and speedscope expect.
//
// Constraints that shaped this:
//   signal safety   the handler only does a backtrace() into a preallocated
//                   slot claimed with one atomic fetch_add — no locks, no
//                   allocation, no symbolization. backtrace()'s lazy libgcc
//                   initialization is primed on start(), outside signal
//                   context.
//   one at a time   SIGPROF and ITIMER_PROF are process-global, so only one
//                   profile can run; start() returns false when busy.
//   sanitizers      interrupting TSan/ASan runtimes mid-instrumentation is
//                   undefined; the profiler compiles to a stub (supported()
//                   == false) under AURIC_PROFILER_DISABLED or when a
//                   sanitizer is detected, and callers degrade gracefully.
//
// Exposed over HTTP as /profilez?seconds=N (obs::debug_endpoint, on the
// live plane and the serve daemon) and as the --profile-out live-plane flag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace auric::obs {

struct ProfileOptions {
  /// Samples per second of process CPU time. 97 (prime) avoids lockstep
  /// with periodic work. Clamped to [1, 1000].
  int hz = 97;
  /// Preallocated sample slots; samples past this are counted as dropped.
  std::size_t max_samples = 65536;
};

struct ProfileReport {
  std::uint64_t samples = 0;  ///< raw stacks collected
  std::uint64_t dropped = 0;  ///< SIGPROF hits past max_samples
  /// Flamegraph-collapsed stacks: "frame;frame;frame count\n" per unique
  /// stack, sorted by stack string (deterministic for a given sample set).
  std::string folded;
};

/// The process-wide profiler. All methods are thread-safe; only one profile
/// runs at a time (the signal and timer are process-global).
class Profiler {
 public:
  /// False when compiled out (sanitizer builds, non-Linux hosts). All other
  /// methods are safe to call regardless — start() just returns false.
  static bool supported();

  static Profiler& global();

  /// Arms the SIGPROF timer. Returns false (and changes nothing) when
  /// unsupported or a profile is already running.
  bool start(const ProfileOptions& options = {});

  /// Disarms the timer, restores the previous SIGPROF disposition, and
  /// folds the collected stacks. Returns an empty report when not running.
  ProfileReport stop();

  bool running() const;

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

 private:
  Profiler() = default;
};

/// Profiles the whole process for `duration_ms`, blocking the calling thread
/// (other threads keep running — they are what gets sampled). Returns an
/// empty report when the profiler is unsupported or already running; the
/// /profilez handler's implementation.
ProfileReport profile_process(int duration_ms, const ProfileOptions& options = {});

}  // namespace auric::obs
