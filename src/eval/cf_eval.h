// Leave-one-out evaluation of the collaborative-filtering learners
// (§4.2: "treats each carrier like a new carrier of interest and uses the
// rest as the existing carriers for learning and recommendation").
//
// The engine already decides this way: AuricEngine::recommend with
// exclude_self removes the slot's own observation from every vote. So
// evaluation only scores: it walks the configured cells of the engine's
// label column (the rows it learned from) and compares each
// recommendation with the configured value. The learner (global or local,
// radius, threshold, KPI weights) and the scope (AuricOptions::market) are
// the engine's options.
#pragma once

#include <vector>

#include "config/catalog.h"
#include "core/engine.h"
#include "netsim/topology.h"

namespace auric::eval {

/// Per-row evaluation record (kept only when a sink is provided).
struct CfPrediction {
  config::ParamId param = 0;
  std::size_t entity = 0;                      ///< carrier id / edge index
  config::ValueIndex predicted = config::kUnset;
  config::ValueIndex actual = config::kUnset;
  netsim::CarrierId carrier = netsim::kInvalidCarrier;
};

struct CfParamResult {
  config::ParamId param = 0;
  std::size_t rows = 0;
  std::size_t correct = 0;
  std::size_t fallback_default = 0;  ///< rows decided by the rule-book default
  std::size_t local_decided = 0;     ///< rows decided by the local vote

  double accuracy() const {
    return rows == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(rows);
  }
};

/// Scores every slot of `param` that `engine` learned from (one market's
/// slots when the engine is scoped), each recommended as if new. `mismatches`,
/// when non-null, receives the rows whose prediction differs from the current
/// value (Fig. 12 input), in entity order.
CfParamResult evaluate_param(const core::AuricEngine& engine, config::ParamId param,
                             std::vector<CfPrediction>* mismatches = nullptr);

/// Evaluates every catalog parameter; results are in catalog-id order.
std::vector<CfParamResult> evaluate_all(const core::AuricEngine& engine,
                                        std::vector<CfPrediction>* mismatches = nullptr);

/// Row-weighted accuracy over a set of per-parameter results.
double overall_accuracy(const std::vector<CfParamResult>& results);

}  // namespace auric::eval
