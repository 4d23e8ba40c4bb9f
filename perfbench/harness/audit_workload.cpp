#include "harness/audit_workload.h"

#include <algorithm>
#include <cstdio>

#include "harness/digest.h"
#include "harness/stats.h"

namespace perfbench {

using auric::core::AuricEngine;
using auric::core::EngineDiffReport;

std::unique_ptr<AuricEngine> learn_churned(const World& world, std::uint64_t seed) {
  return learn_engine(world, churned_assignment(world, stream_seed(seed, 7), kChurnCarriers));
}

std::unique_ptr<AuditPair> set_up_audit(const RunConfig& config) {
  auto pair = std::make_unique<AuditPair>();
  pair->world = build_world(config.world);
  pair->prev = learn_engine(*pair->world, pair->world->assignment);
  pair->next = learn_churned(*pair->world, config.seed);
  auric::core::diff_engines(*pair->prev, *pair->next, 200, config.seed);  // warm-up
  return pair;
}

void check_audit(const World& world, const AuricEngine& prev, const AuricEngine& next,
                 const EngineDiffReport& report, std::uint64_t seed, WorkloadResult& result) {
  const std::size_t carriers = world.topology.carrier_count();
  const auto& singular = world.catalog.singular_ids();
  std::size_t churn_flips = 0;
  std::size_t churn_sources = 0;
  for (const auto& c : report.churn) {
    churn_flips += c.flips;
    churn_sources += c.source_changes;
  }
  if (report.carriers_sampled != carriers || report.slots_compared != carriers * singular.size() ||
      churn_flips != report.flips || churn_sources != report.source_changes) {
    result.fail_check("full-breadth audit report is internally inconsistent");
    return;
  }

  // Re-derive a seeded sample: the same carriers diff_engines picks (shuffle
  // the id space with the audit seed, keep the prefix), compared slot by
  // slot through the public recommend path.
  constexpr std::size_t kSample = 64;
  const std::vector<auric::netsim::CarrierId> ids = seeded_sample(carriers, seed, kSample);
  std::size_t flips = 0;
  std::size_t sources = 0;
  for (const auric::netsim::CarrierId c : ids) {
    const auto before = prev.recommend_singular(c);
    const auto after = next.recommend_singular(c);
    for (std::size_t i = 0; i < before.size(); ++i) {
      flips += before[i].value != after[i].value ? 1 : 0;
      sources += before[i].source != after[i].source ? 1 : 0;
    }
  }
  const EngineDiffReport sampled = auric::core::diff_engines(prev, next, kSample, seed);
  result.attempted += ids.size() * singular.size();
  if (sampled.flips != flips || sampled.source_changes != sources ||
      sampled.slots_compared != ids.size() * singular.size()) {
    result.fail_check("sampled audit disagrees with direct recommend_singular calls");
  }
}

std::string recommendations_digest(const World& world, const AuricEngine& engine) {
  Digest digest;
  char line[160];
  for (const auric::netsim::CarrierId c :
       seeded_sample(world.topology.carrier_count(), stream_seed(kAnchorSeed, 12), 256)) {
    for (const auric::core::Recommendation& rec : engine.recommend_singular(c)) {
      std::snprintf(line, sizeof(line), "%d,%d,%d,%d,%d,%d,%a,%a", static_cast<int>(c),
                    static_cast<int>(rec.param), static_cast<int>(rec.value),
                    static_cast<int>(rec.source), static_cast<int>(rec.votes),
                    static_cast<int>(rec.group_size), rec.support, rec.margin);
      digest.add(line);
    }
  }
  return digest.hex();
}

std::string report_digest(const EngineDiffReport& report) {
  Digest digest;
  digest.add(report.json(0));
  return digest.hex();
}

WorkloadResult run_audit(const RunConfig& config) {
  WorkloadResult result;
  std::vector<double> setups;
  std::unique_ptr<AuditPair> pair;
  for (int rep = 0; rep < std::max(1, config.setup_reps); ++rep) {
    pair.reset();
    const Clock::time_point start = Clock::now();
    pair = set_up_audit(config);
    setups.push_back(seconds_since(start));
  }
  print_world_stamp(*pair->world, config);
  say("setup: median %.3f s over %zu set-ups (world, 2 engine learns, warm-up)", median(setups),
      setups.size());

  // Full-breadth audits until the measuring time is used (at least two).
  std::vector<double> call_ms;
  std::vector<double> cpu_ms;
  std::string first_json;
  EngineDiffReport first;
  bool identical = true;
  const Clock::time_point measure_start = Clock::now();
  while (call_ms.size() < 2 || seconds_since(measure_start) < config.seconds) {
    const Clock::time_point start = Clock::now();
    const double cpu_start = process_cpu_s();
    EngineDiffReport report = auric::core::diff_engines(*pair->prev, *pair->next, 0, config.seed);
    cpu_ms.push_back((process_cpu_s() - cpu_start) * 1e3);
    call_ms.push_back(seconds_since(start) * 1e3);
    result.attempted += report.slots_compared;
    std::string json = report.json(0);
    if (first_json.empty()) {
      first_json = std::move(json);
      first = std::move(report);
    } else {
      identical = identical && json == first_json;
    }
  }
  result.add_digest(seeded_name("report", config.seed), report_digest(first));
  result.add_digest("recommendations", recommendations_digest(*pair->world, *pair->prev));
  if (!identical) result.fail_check("repeated full-breadth audits returned different reports");
  check_audit(*pair->world, *pair->prev, *pair->next, first, config.seed, result);

  const double p50 = median(call_ms);
  const double slots_per_s = static_cast<double>(first.slots_compared) / (p50 / 1e3);
  say("audit: %zu carriers, %zu slots, %zu flips (rate %.5f), %zu source changes",
      first.carriers_sampled, first.slots_compared, first.flips, first.flip_rate,
      first.source_changes);
  say("audit wall %.1f ms median, CPU %.1f ms median / %.1f ms fastest (n=%zu calls)", p50,
      median(cpu_ms), *std::min_element(cpu_ms.begin(), cpu_ms.end()), call_ms.size());
  say("audit.slots_per_s %.0f slots/s", slots_per_s);

  result.add("setup_s", median(setups), "s");
  result.add("rss_peak_mb", peak_rss_mb(), "MB");
  // The least-disturbed call: on a shared host, CPU time of this memory-bound
  // loop swings with neighbours' cache pressure from call to call.
  result.add("cpu_ms_per_op", *std::min_element(cpu_ms.begin(), cpu_ms.end()), "ms");
  return result;
}

}  // namespace perfbench
