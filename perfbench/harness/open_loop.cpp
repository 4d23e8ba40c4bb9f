#include "harness/open_loop.h"

#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "harness/http_client.h"
#include "harness/stats.h"
#include "util/rng.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Median send delay over records [begin, end) of a due-ordered sample.
double median_late(const std::vector<const RequestRecord*>& sent, std::size_t begin,
                   std::size_t end) {
  std::vector<double> late;
  for (std::size_t i = begin; i < end; ++i) late.push_back(late_ms(*sent[i]));
  return median(std::move(late));
}

}  // namespace

std::vector<double> poisson_arrivals(double rate, double duration_s, std::uint64_t seed) {
  std::vector<double> due;
  if (rate <= 0.0) return due;
  auric::util::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration_s) break;
    due.push_back(t);
  }
  return due;
}

std::vector<RequestRecord> send_open_loop(std::uint16_t port, int connections,
                                          const std::vector<double>& due,
                                          const std::vector<std::string>& targets,
                                          double abort_late_s, double* generator_cpu_s) {
  std::vector<RequestRecord> records(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) records[i].due = due[i];
  std::atomic<std::size_t> next{0};
  std::atomic<bool> abandoned{false};
  std::atomic<std::int64_t> cpu_ns{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto since_start = [start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const auto connection = [&] {
    while (!abandoned.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= due.size()) break;
      RequestRecord& rec = records[i];
      rec.picked = since_start();
      if (rec.picked - rec.due > abort_late_s) {
        abandoned.store(true, std::memory_order_relaxed);
        break;
      }
      if (rec.due > rec.picked) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(rec.due)));
      }
      rec.sent = since_start();
      const HttpReply reply = http_get(port, targets[i]);
      rec.done = since_start();
      rec.status = reply.status;
    }
    timespec used{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &used);
    cpu_ns.fetch_add(static_cast<std::int64_t>(used.tv_sec) * 1000000000 + used.tv_nsec);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(std::max(1, connections)));
  for (int c = 0; c < std::max(1, connections); ++c) threads.emplace_back(connection);
  for (std::thread& t : threads) t.join();
  if (generator_cpu_s != nullptr) *generator_cpu_s = static_cast<double>(cpu_ns.load()) * 1e-9;
  return records;
}

bool growing_backlog(const std::vector<RequestRecord>& records) {
  std::vector<const RequestRecord*> sent;
  for (const RequestRecord& r : records) {
    if (!r.was_sent()) return true;  // the step was abandoned mid-way
    sent.push_back(&r);
  }
  if (sent.size() < 8) return false;
  std::sort(sent.begin(), sent.end(),
            [](const RequestRecord* a, const RequestRecord* b) { return a->due < b->due; });
  const std::size_t quarter = sent.size() / 4;
  const double first = median_late(sent, 0, quarter);
  const double last = median_late(sent, sent.size() - quarter, sent.size());
  return last > first + 1.0 && last > 2.0;
}

StepStats summarize_step(double rate, double duration_s,
                         const std::vector<RequestRecord>& records, double generator_ceiling,
                         double max_generator_lag_ms) {
  StepStats step;
  step.rate = rate;
  step.duration_s = duration_s;
  step.scheduled = records.size();
  std::vector<double> late;
  std::vector<double> lag;
  for (const RequestRecord& r : records) {
    if (!r.was_sent()) continue;
    ++step.sent;
    const bool ok = r.status == 200;
    if (!ok) ++step.failed;
    step.latency_ms.push_back(ok ? latency_from_due_ms(r)
                                 : std::max(kFailedLatencyMs, latency_from_due_ms(r)));
    late.push_back(late_ms(r));
    lag.push_back(generator_lag_ms(r));
  }
  step.p50_ms = median(step.latency_ms);
  step.p99_ms = samples_beyond(step.latency_ms.size(), 9900) >= 10
                    ? quantile_bp(step.latency_ms, 9900)
                    : std::numeric_limits<double>::quiet_NaN();
  const std::size_t windows =
      std::max<std::size_t>(1, static_cast<std::size_t>(duration_s / 1.25));
  const double window_s = duration_s / static_cast<double>(windows);
  std::vector<std::vector<double>> by_window(windows);
  for (std::size_t i = 0, k = 0; i < records.size(); ++i) {
    if (!records[i].was_sent()) continue;
    const auto w = std::min(windows - 1, static_cast<std::size_t>(records[i].due / window_s));
    by_window[w].push_back(step.latency_ms[k++]);
  }
  std::vector<double> window_p99;
  for (const std::vector<double>& sample : by_window) {
    if (samples_beyond(sample.size(), 9900) >= 10) window_p99.push_back(quantile_bp(sample, 9900));
  }
  step.p99_windows = window_p99.size();
  step.windowed_p99_ms = median(window_p99);
  step.late_p99_ms = quantile_bp(late, 9900);
  step.generator_lag_p99_ms = quantile_bp(lag, 9900);
  step.backlog = growing_backlog(records);
  step.generator_valid = !(step.generator_lag_p99_ms > max_generator_lag_ms) &&
                         (generator_ceiling <= 0.0 || rate < 0.9 * generator_ceiling);
  return step;
}

double select_max_qps(const std::vector<StepStats>& steps, double p99_limit_ms) {
  double best = 0.0;
  for (const StepStats& s : steps) {
    const bool meets = s.generator_valid && !s.backlog && s.failed == 0 &&
                       std::isfinite(s.p99_ms) && s.p99_ms <= p99_limit_ms;
    if (meets) best = std::max(best, s.rate);
  }
  return best;
}

}  // namespace perfbench
