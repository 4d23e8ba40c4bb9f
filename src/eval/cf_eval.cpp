#include "eval/cf_eval.h"

namespace auric::eval {

CfParamResult evaluate_param(const core::AuricEngine& engine, config::ParamId param,
                             std::vector<CfPrediction>* mismatches) {
  // The configured cells of the parameter's label column, in entity order:
  // the rows the engine learned from.
  const core::LabelColumn column = engine.label_column(param);
  const std::vector<config::ValueIndex>& values = engine.view(param).labels.values;
  const netsim::Topology& topology = engine.topology();
  CfParamResult result;
  result.param = param;
  column.for_each([&](std::size_t e, ml::ClassLabel label) {
    const config::ValueIndex actual = values[static_cast<std::size_t>(label)];
    netsim::CarrierId carrier = static_cast<netsim::CarrierId>(e);
    netsim::CarrierId neighbor = netsim::kInvalidCarrier;
    if (column.topology != nullptr) {
      carrier = topology.edges[e].from;
      neighbor = topology.edges[e].to;
    }
    ++result.rows;
    const core::Recommendation rec =
        engine.recommend(param, carrier, neighbor, /*exclude_self=*/true);
    if (rec.source == core::RecommendationSource::kRulebookDefault) ++result.fallback_default;
    if (rec.source == core::RecommendationSource::kLocalVote) ++result.local_decided;
    if (rec.value == actual) {
      ++result.correct;
    } else if (mismatches != nullptr) {
      mismatches->push_back({param, e, rec.value, actual, carrier});
    }
  });
  return result;
}

std::vector<CfParamResult> evaluate_all(const core::AuricEngine& engine,
                                        std::vector<CfPrediction>* mismatches) {
  const std::size_t n = engine.catalog().size();
  std::vector<CfParamResult> out;
  out.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    out.push_back(evaluate_param(engine, static_cast<config::ParamId>(p), mismatches));
  }
  return out;
}

double overall_accuracy(const std::vector<CfParamResult>& results) {
  std::size_t rows = 0;
  std::size_t correct = 0;
  for (const CfParamResult& r : results) {
    rows += r.rows;
    correct += r.correct;
  }
  return rows == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(rows);
}

}  // namespace auric::eval
