// The `audit` workload: the relearn shadow-audit at full breadth.
// core::diff_engines(prev, next, 0, seed) where `prev` is learned on the
// inventory and `next` on a copy with seeded day-scale churn (21 carriers'
// singular slots redrawn): 2 x carriers x 39 recommendations, no sockets, no
// threads, no table writes.
#pragma once

#include <memory>
#include <string>

#include "core/engine.h"
#include "core/engine_diff.h"
#include "harness/report.h"
#include "harness/world.h"

namespace perfbench {

inline constexpr int kChurnCarriers = 21;

struct AuditPair {
  std::unique_ptr<World> world;
  std::unique_ptr<auric::core::AuricEngine> prev;
  std::unique_ptr<auric::core::AuricEngine> next;
};

/// `next`: an engine learned on the world's assignment after seeded churn.
std::unique_ptr<auric::core::AuricEngine> learn_churned(const World& world, std::uint64_t seed);

/// World, both learns, and a small warm-up audit.
std::unique_ptr<AuditPair> set_up_audit(const RunConfig& config);

/// Checks a full-breadth report for internal consistency and re-derives a
/// seeded 64-carrier sample of it from direct recommend_singular calls.
void check_audit(const World& world, const auric::core::AuricEngine& prev,
                 const auric::core::AuricEngine& next,
                 const auric::core::EngineDiffReport& report, std::uint64_t seed,
                 WorkloadResult& result);

/// Digest of `engine`'s recommend_singular answers (value, source, votes,
/// group size, and support and margin in hexfloat) on a fixed 256-carrier
/// sample. Applied to `prev`, which is learned on the inventory alone, it
/// does not depend on the workload seed.
std::string recommendations_digest(const World& world, const auric::core::AuricEngine& engine);

/// Digest of a full-breadth report: EngineDiffReport::json(0).
std::string report_digest(const auric::core::EngineDiffReport& report);

/// The untraced `audit` run.
WorkloadResult run_audit(const RunConfig& config);

}  // namespace perfbench
