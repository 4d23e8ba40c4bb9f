// Bounded in-memory tail of emitted log lines.
//
// Long operational runs (a two-month replay, a sharded launch stream) emit
// their WARN/ERROR context to stderr, which is useless once the terminal
// scrolls away or the process runs under a supervisor. This ring keeps the
// last N formatted lines so the live plane can expose them at GET /logz —
// the same "recent context without shelling into files" role kubelet's
// /logs and Envoy's admin tail play.
//
// Sits in obs (std-library only) so util::log can append into it without a
// layering inversion: obs is BELOW util, and obs::debug_endpoint — also
// obs — reads the ring directly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace auric::obs {

class LogBuffer {
 public:
  /// Keeps the most recent `capacity` lines (default matches the /logz
  /// contract: the last 256).
  explicit LogBuffer(std::size_t capacity = 256);
  LogBuffer(const LogBuffer&) = delete;
  LogBuffer& operator=(const LogBuffer&) = delete;

  /// The process-wide ring util::log feeds.
  static LogBuffer& global();

  /// Appends one line (no trailing newline expected); the oldest line is
  /// evicted once the ring is full.
  void append(std::string line);

  std::size_t capacity() const { return capacity_; }

  /// Lines currently retained, oldest first.
  std::vector<std::string> tail() const;

  /// tail() joined with '\n' (trailing newline included when non-empty) —
  /// the GET /logz response body.
  std::string text() const;

  /// Lines ever appended (>= tail().size(); the difference is what the ring
  /// evicted).
  std::uint64_t total_appended() const;

  void clear();

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<std::string> ring_;  ///< size() < capacity_ until full
  std::size_t head_ = 0;           ///< next overwrite position once full
  std::uint64_t total_ = 0;
};

}  // namespace auric::obs
