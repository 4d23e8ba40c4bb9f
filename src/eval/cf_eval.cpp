#include "eval/cf_eval.h"

namespace auric::eval {

CfParamResult evaluate_param(const core::AuricEngine& engine, config::ParamId param,
                             std::vector<CfPrediction>* mismatches) {
  const core::ParamView& view = engine.view(param);
  CfParamResult result;
  result.param = param;
  result.rows = view.rows();
  for (std::size_t r = 0; r < view.rows(); ++r) {
    const core::Recommendation rec =
        engine.recommend(param, view.carrier[r], view.neighbor[r], /*exclude_self=*/true);
    if (rec.source == core::RecommendationSource::kRulebookDefault) ++result.fallback_default;
    if (rec.source == core::RecommendationSource::kLocalVote) ++result.local_decided;
    if (rec.value == view.value[r]) {
      ++result.correct;
    } else if (mismatches != nullptr) {
      mismatches->push_back({param, view.entity[r], rec.value, view.value[r], view.carrier[r]});
    }
  }
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
