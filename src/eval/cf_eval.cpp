#include "eval/cf_eval.h"

namespace auric::eval {

using core::BackoffVoting;
using core::DependencyModel;
using core::ParamView;

CfEvaluator::CfEvaluator(const netsim::Topology& topology, const netsim::AttributeSchema& schema,
                         const config::ParamCatalog& catalog,
                         const config::ConfigAssignment& assignment, CfEvalOptions options)
    : topology_(&topology),
      schema_(&schema),
      catalog_(&catalog),
      assignment_(&assignment),
      options_(options),
      attr_codes_(schema.encode_all(topology)),
      attr_words_(schema, attr_codes_) {}

CfParamResult CfEvaluator::evaluate_param(config::ParamId param,
                                          std::optional<netsim::MarketId> market,
                                          std::vector<CfPrediction>* mismatches) const {
  const ParamView view =
      core::build_param_view(*topology_, *catalog_, *assignment_, param, market);
  core::DependencyOptions dep_options;
  dep_options.p_value = options_.p_value;
  dep_options.max_dependent = options_.max_dependent;
  const DependencyModel deps = core::learn_dependencies(view, attr_codes_, *schema_, dep_options);
  const BackoffVoting model(view, deps.dependent, attr_words_, options_.backoff_levels);
  const config::ValueIndex default_value = catalog_->at(param).default_index;
  // The local vote reads a label matrix; this view's is one column wide.
  core::LabelMatrix matrix(view.pairwise ? topology_->edge_count() : topology_->carrier_count(),
                           1);
  matrix.assign_column(0, view, catalog_->at(param).name);
  const core::LabelColumn labels = matrix.column(0, view.pairwise ? topology_ : nullptr);

  CfParamResult result;
  result.param = param;
  result.rows = view.rows();

  for (std::size_t r = 0; r < view.rows(); ++r) {
    const netsim::CarrierId carrier = view.carrier[r];

    config::ValueIndex predicted = config::kUnset;
    bool decided_locally = false;
    if (options_.local) {
      std::optional<BackoffVoting::Decision> decision;
      if (options_.proximity_hops == 1) {
        decision = model.local(labels, topology_->neighborhood(carrier), carrier,
                               view.neighbor[r], static_cast<std::int64_t>(view.entity[r]),
                               options_.vote_threshold, options_.carrier_weights);
      } else {
        const auto hood = topology_->neighborhood_hops(carrier, options_.proximity_hops);
        decision = model.local(labels, hood, carrier, view.neighbor[r],
                               static_cast<std::int64_t>(view.entity[r]), options_.vote_threshold,
                               options_.carrier_weights);
      }
      if (decision) {
        predicted = view.labels.values[static_cast<std::size_t>(decision->vote.label)];
        decided_locally = true;
      }
    }
    if (predicted == config::kUnset && (!options_.local || options_.fallback_global)) {
      const auto decision = model.vote_excluding(carrier, view.neighbor[r], view.label[r],
                                                 options_.vote_threshold);
      if (decision) {
        predicted = view.labels.values[static_cast<std::size_t>(decision->vote.label)];
      }
    }
    if (predicted == config::kUnset) {
      predicted = default_value;
      ++result.fallback_default;
    }
    if (decided_locally) ++result.local_decided;

    if (predicted == view.value[r]) {
      ++result.correct;
    } else if (mismatches != nullptr) {
      mismatches->push_back({param, view.entity[r], predicted, view.value[r], carrier});
    }
  }
  return result;
}

std::vector<CfParamResult> CfEvaluator::evaluate_all(
    std::optional<netsim::MarketId> market, std::vector<CfPrediction>* mismatches) const {
  std::vector<CfParamResult> out;
  out.reserve(catalog_->size());
  for (std::size_t p = 0; p < catalog_->size(); ++p) {
    out.push_back(evaluate_param(static_cast<config::ParamId>(p), market, mismatches));
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
