// Leave-one-out evaluation of the collaborative-filtering learners
// (§4.2: "treats each carrier like a new carrier of interest and uses the
// rest as the existing carriers for learning and recommendation").
//
// For CF + voting this protocol is exact and cheap: the peer groups are
// aggregated once, and each row's own observation is subtracted from its
// group before voting. The local learner restricts the voters to the 1-hop
// X2 neighborhood and — like the production engine — falls back to the
// global vote and then the rule-book default.
#pragma once

#include <optional>
#include <vector>

#include "config/assignment.h"
#include "config/catalog.h"
#include "core/dependency.h"
#include "core/param_view.h"
#include "core/voting.h"
#include "netsim/attributes.h"
#include "netsim/topology.h"

namespace auric::eval {

struct CfEvalOptions {
  double p_value = 0.01;
  double vote_threshold = 0.75;
  int max_dependent = 14;  ///< see core::DependencyOptions
  int backoff_levels = 5;  ///< see core::BackoffVoting
  bool local = false;  ///< geographical proximity (1-hop X2) first
  int proximity_hops = 1;
  bool fallback_global = true;  ///< local learner falls back to global vote

  /// §6 performance-feedback extension: per-carrier voting weights (empty =
  /// plain counting). Only affects the local vote path.
  std::vector<double> carrier_weights;
};

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

class CfEvaluator {
 public:
  /// `attr_codes` must be schema.encode_all(topology).
  CfEvaluator(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
              const config::ParamCatalog& catalog, const config::ConfigAssignment& assignment,
              CfEvalOptions options);

  /// Evaluates one parameter; when `market` is set, both learning and
  /// evaluation are scoped to that market's carriers (the paper's per-market
  /// protocol). `mismatches`, when non-null, receives the rows whose
  /// prediction differs from the current value (Fig. 12 input).
  CfParamResult evaluate_param(config::ParamId param,
                               std::optional<netsim::MarketId> market = std::nullopt,
                               std::vector<CfPrediction>* mismatches = nullptr) const;

  /// Evaluates every catalog parameter; results are in catalog-id order.
  /// Accuracy across parameters is row-weighted.
  std::vector<CfParamResult> evaluate_all(std::optional<netsim::MarketId> market = std::nullopt,
                                          std::vector<CfPrediction>* mismatches = nullptr) const;

  const CfEvalOptions& options() const { return options_; }

 private:
  const netsim::Topology* topology_;
  const netsim::AttributeSchema* schema_;
  const config::ParamCatalog* catalog_;
  const config::ConfigAssignment* assignment_;
  CfEvalOptions options_;
  std::vector<std::vector<netsim::AttrCode>> attr_codes_;
  core::AttrWords attr_words_;
};

/// Row-weighted accuracy over a set of per-parameter results.
double overall_accuracy(const std::vector<CfParamResult>& results);

}  // namespace auric::eval
