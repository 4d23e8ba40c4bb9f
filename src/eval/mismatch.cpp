#include "eval/mismatch.h"

#include <algorithm>
#include <stdexcept>

namespace auric::eval {

const char* mismatch_label_name(MismatchLabel label) {
  switch (label) {
    case MismatchLabel::kUpdateLearner: return "update learner";
    case MismatchLabel::kGoodRecommendation: return "good recommendation";
    case MismatchLabel::kInconclusive: return "inconclusive";
  }
  return "?";
}

double MismatchBreakdown::fraction(MismatchLabel label) const {
  if (total == 0) return 0.0;
  std::size_t count = 0;
  switch (label) {
    case MismatchLabel::kUpdateLearner: count = update_learner; break;
    case MismatchLabel::kGoodRecommendation: count = good_recommendation; break;
    case MismatchLabel::kInconclusive: count = inconclusive; break;
  }
  return static_cast<double>(count) / static_cast<double>(total);
}

MismatchLabel label_mismatch(config::Cause cause, config::ValueIndex intended,
                             config::ValueIndex predicted) {
  switch (cause) {
    case config::Cause::kTrial:
    case config::Cause::kHiddenTerrain:
      // The engineers stand by the current value: either it is part of an
      // ongoing trial, or it reflects terrain the learner cannot see.
      return MismatchLabel::kUpdateLearner;
    case config::Cause::kStaleLeftover:
      // The network kept a sub-optimal leftover; if Auric recommended the
      // engineering intent, the recommendation improves the network.
      return predicted == intended ? MismatchLabel::kGoodRecommendation
                                   : MismatchLabel::kInconclusive;
    default:
      return MismatchLabel::kInconclusive;
  }
}

namespace {

/// Resolves a prediction's (kind, position) within the assignment.
config::ParamColumn& column_of(const config::ParamCatalog& catalog,
                               config::ConfigAssignment& assignment, config::ParamId param) {
  const config::ParamDef& def = catalog.at(param);
  const bool pairwise = def.kind == config::ParamKind::kPairwise;
  const auto& ids = pairwise ? catalog.pairwise_ids() : catalog.singular_ids();
  const std::size_t pos =
      static_cast<std::size_t>(std::find(ids.begin(), ids.end(), param) - ids.begin());
  return pairwise ? assignment.pairwise.at(pos) : assignment.singular.at(pos);
}

}  // namespace

std::size_t apply_good_recommendations(const std::vector<CfPrediction>& mismatches,
                                       const config::ParamCatalog& catalog,
                                       config::ConfigAssignment& assignment) {
  std::size_t pushed = 0;
  for (const CfPrediction& m : mismatches) {
    config::ParamColumn& col = column_of(catalog, assignment, m.param);
    const std::size_t i = col.find(m.entity);
    if (i == config::ParamColumn::npos || col.value_at(i) != m.actual) {
      throw std::logic_error("apply_good_recommendations: stale prediction batch");
    }
    if (label_mismatch(col.cause_at(i), col.intended_at(i), m.predicted) !=
        MismatchLabel::kGoodRecommendation) {
      continue;
    }
    // m.predicted == intended, by the label's definition.
    col.set(m.entity, m.predicted, col.intended_at(i), config::Cause::kDefault);
    ++pushed;
  }
  return pushed;
}

MismatchBreakdown label_mismatches(const std::vector<CfPrediction>& mismatches,
                                   const config::ParamCatalog& catalog,
                                   const config::ConfigAssignment& assignment) {
  MismatchBreakdown breakdown;
  for (const CfPrediction& m : mismatches) {
    const config::ParamDef& def = catalog.at(m.param);
    const bool pairwise = def.kind == config::ParamKind::kPairwise;
    const auto& ids = pairwise ? catalog.pairwise_ids() : catalog.singular_ids();
    const std::size_t pos = static_cast<std::size_t>(
        std::find(ids.begin(), ids.end(), m.param) - ids.begin());
    const config::ParamColumn& col =
        pairwise ? assignment.pairwise.at(pos) : assignment.singular.at(pos);
    const std::size_t i = col.find(m.entity);
    if (i == config::ParamColumn::npos || col.value_at(i) != m.actual) {
      throw std::logic_error("label_mismatches: prediction does not match assignment slot");
    }
    switch (label_mismatch(col.cause_at(i), col.intended_at(i), m.predicted)) {
      case MismatchLabel::kUpdateLearner: ++breakdown.update_learner; break;
      case MismatchLabel::kGoodRecommendation: ++breakdown.good_recommendation; break;
      case MismatchLabel::kInconclusive: ++breakdown.inconclusive; break;
    }
    ++breakdown.total;
  }
  return breakdown;
}

}  // namespace auric::eval
