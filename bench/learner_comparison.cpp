#include "learner_comparison.h"

#include <algorithm>
#include <optional>

#include "core/param_view.h"
#include "eval/cf_eval.h"
#include "eval/model_eval.h"
#include "ml/decision_tree.h"
#include "ml/knn.h"
#include "ml/metrics.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/timer.h"

namespace auric::bench {

LearnerComparisonOptions declare_comparison_flags(util::Args& args) {
  LearnerComparisonOptions options;
  options.deep_dive_markets = static_cast<int>(
      args.get_int("deep-dive-markets", 4, "markets evaluated (Table 3 deep-dive subset)"));
  options.folds =
      static_cast<int>(args.get_int("folds", 2, "cross-validation folds for model learners"));
  options.train_cap = args.get_int("train-cap", 1500, "training rows per fold (0 = uncapped)");
  options.test_cap = args.get_int("test-cap", 4000, "test rows per fold (0 = uncapped)");
  options.mlp_epochs =
      static_cast<int>(args.get_int("mlp-epochs", 20, "MLP training epochs (paper: <=10000)"));
  options.learners = args.get_string(
      "learners", "all", "comma list of rf,knn,dt,mlp,cf (or \"all\")");
  return options;
}

double MarketComparison::average(int learner) const {
  ml::MeanAccumulator acc;
  for (const ParamAccuracy& p : per_param) {
    if (p.accuracy[learner] >= 0.0) acc.add(p.accuracy[learner], static_cast<double>(p.rows));
  }
  return acc.mean();
}

namespace {

bool learner_enabled(const LearnerComparisonOptions& options, const char* key) {
  if (options.learners == "all") return true;
  for (const std::string& item : util::split(options.learners, ',')) {
    if (util::trim(item) == key) return true;
  }
  return false;
}

}  // namespace

std::vector<MarketComparison> run_learner_comparison(const ExperimentContext& ctx,
                                                     const LearnerComparisonOptions& options) {
  const auto attr_codes = ctx.schema.encode_all(ctx.topology);

  const bool run_rf = learner_enabled(options, "rf");
  const bool run_knn = learner_enabled(options, "knn");
  const bool run_dt = learner_enabled(options, "dt");
  const bool run_mlp = learner_enabled(options, "mlp");
  const bool run_cf = learner_enabled(options, "cf");

  core::AuricOptions cf_options;  // global learner: no proximity
  cf_options.use_proximity = false;

  std::vector<MarketComparison> out;
  util::Timer timer;
  // A world with fewer markets than the flag deep-dives all of them.
  const int markets =
      std::min(options.deep_dive_markets, static_cast<int>(ctx.topology.markets.size()));
  for (int m = 0; m < markets; ++m) {
    MarketComparison comparison;
    comparison.market = static_cast<netsim::MarketId>(m);
    std::optional<core::AuricEngine> cf_engine;
    if (run_cf) {
      cf_options.market = comparison.market;
      cf_engine.emplace(ctx.topology, ctx.schema, ctx.catalog, ctx.assignment, cf_options);
    }
    for (std::size_t p = 0; p < ctx.catalog.size(); ++p) {
      const auto param = static_cast<config::ParamId>(p);
      const core::ParamView view = core::build_param_view(
          ctx.topology, ctx.catalog, ctx.assignment, param, comparison.market);
      if (view.rows() == 0) continue;

      ParamAccuracy result;
      result.param = param;
      result.rows = view.rows();
      result.distinct_values = view.labels.size();

      if (run_cf) {
        result.accuracy[4] = eval::evaluate_param(*cf_engine, param).accuracy();
      }

      if (run_rf || run_knn || run_dt || run_mlp) {
        const ml::CategoricalDataset data =
            core::to_categorical_dataset(view, ctx.schema, attr_codes);
        eval::ModelEvalOptions eval_options;
        eval_options.folds = options.folds;
        eval_options.train_cap = options.train_cap;
        eval_options.test_cap = options.test_cap;
        eval_options.seed = ctx.topo_params.seed * 1000 + p;

        // Hyper-parameters per §4.2 of the paper.
        if (run_rf) {
          result.accuracy[0] =
              eval::evaluate_model([] { return std::make_unique<ml::RandomForest>(); }, data,
                                   eval_options)
                  .accuracy();
        }
        if (run_knn) {
          result.accuracy[1] =
              eval::evaluate_model([] { return std::make_unique<ml::KNearestNeighbors>(); },
                                   data, eval_options)
                  .accuracy();
        }
        if (run_dt) {
          result.accuracy[2] =
              eval::evaluate_model([] { return std::make_unique<ml::DecisionTree>(); }, data,
                                   eval_options)
                  .accuracy();
        }
        if (run_mlp) {
          const int epochs = options.mlp_epochs;
          result.accuracy[3] = eval::evaluate_model(
                                   [epochs] {
                                     ml::MlpOptions mlp;
                                     mlp.max_epochs = epochs;
                                     mlp.seed = 1;  // "random state of 1"
                                     return std::make_unique<ml::MultilayerPerceptron>(mlp);
                                   },
                                   data, eval_options)
                                   .accuracy();
        }
      }
      comparison.per_param.push_back(result);
    }
    // Fig. 10 presents parameters reverse-sorted by variability.
    std::sort(comparison.per_param.begin(), comparison.per_param.end(),
              [](const ParamAccuracy& a, const ParamAccuracy& b) {
                return a.distinct_values > b.distinct_values;
              });
    util::log_info(util::format("market %d learner comparison done (%.1fs elapsed)", m + 1,
                                timer.elapsed_seconds()));
    out.push_back(std::move(comparison));
  }
  return out;
}

}  // namespace auric::bench
