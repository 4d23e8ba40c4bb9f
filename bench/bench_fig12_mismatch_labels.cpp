// Fig. 12 of the paper: labeling of the mismatches between the local
// learner's recommendations and the current network values.
//
// The paper sampled 54,915 mismatches and had market engineers label them:
//   update learner       3,075  (5%)
//   good recommendation 15,241 (28%)  -> pushed as configuration changes
//   inconclusive        36,599 (67%)
// Our stand-in for the engineers is the ground-truth oracle
// (eval::label_mismatches; see DESIGN.md §6 and mismatch.h).
#include <cstdio>

#include "common.h"
#include "eval/cf_eval.h"
#include "eval/mismatch.h"
#include "util/strings.h"
#include "util/table.h"

namespace auric::bench {
namespace {

int body(util::Args& args) {
  ExperimentContext ctx = make_context(args);
  if (args.help_requested()) return 0;

  core::AuricOptions options;  // the local learner, one market at a time
  std::vector<eval::CfPrediction> mismatches;
  std::size_t rows = 0;
  std::size_t correct = 0;
  for (std::size_t m = 0; m < ctx.topology.markets.size(); ++m) {
    options.market = static_cast<netsim::MarketId>(m);
    const auto results = eval::evaluate_all(
        core::AuricEngine(ctx.topology, ctx.schema, ctx.catalog, ctx.assignment, options),
        &mismatches);
    for (const auto& r : results) {
      rows += r.rows;
      correct += r.correct;
    }
  }

  const eval::MismatchBreakdown breakdown =
      eval::label_mismatches(mismatches, ctx.catalog, ctx.assignment);

  std::printf("local learner accuracy: %.2f%% over %s values -> %s mismatches labeled\n",
              100.0 * static_cast<double>(correct) / static_cast<double>(rows),
              util::with_commas(static_cast<long long>(rows)).c_str(),
              util::with_commas(static_cast<long long>(breakdown.total)).c_str());
  std::printf("[paper: ~96%% accuracy; 54,915 sampled mismatches labeled]\n\n");

  util::Table table({"label", "mismatches", "share %", "paper share %"});
  table.add_row({"update learner",
                 util::with_commas(static_cast<long long>(breakdown.update_learner)),
                 util::format_fixed(100.0 * breakdown.fraction(
                                                eval::MismatchLabel::kUpdateLearner), 1),
                 "5.6"});
  table.add_row({"good recommendation",
                 util::with_commas(static_cast<long long>(breakdown.good_recommendation)),
                 util::format_fixed(100.0 * breakdown.fraction(
                                                eval::MismatchLabel::kGoodRecommendation), 1),
                 "27.8"});
  table.add_row({"inconclusive",
                 util::with_commas(static_cast<long long>(breakdown.inconclusive)),
                 util::format_fixed(100.0 * breakdown.fraction(
                                                eval::MismatchLabel::kInconclusive), 1),
                 "66.6"});
  table.print();

  std::printf("\n\"good recommendation\" mismatches are the ones the paper pushed into the"
              " network as changes\n(15K+ parameters); in this reproduction they are exactly the"
              " stale-leftover slots whose\nrecommendation equals the engineering intent.\n");

  // The paper's "added bonus" closed loop: push the good recommendations as
  // configuration changes and re-evaluate — the network converges to intent.
  config::ConfigAssignment improved = ctx.assignment;
  const std::size_t pushed =
      eval::apply_good_recommendations(mismatches, ctx.catalog, improved);
  std::size_t re_rows = 0;
  std::size_t re_correct = 0;
  for (std::size_t m = 0; m < ctx.topology.markets.size(); ++m) {
    options.market = static_cast<netsim::MarketId>(m);
    for (const auto& r : eval::evaluate_all(
             core::AuricEngine(ctx.topology, ctx.schema, ctx.catalog, improved, options))) {
      re_rows += r.rows;
      re_correct += r.correct;
    }
  }
  std::printf("\nafter pushing the %s good recommendations into the network"
              " [paper: 15K+ changes],\nlocal accuracy rises %.2f%% -> %.2f%%\n",
              util::with_commas(static_cast<long long>(pushed)).c_str(),
              100.0 * static_cast<double>(correct) / static_cast<double>(rows),
              100.0 * static_cast<double>(re_correct) / static_cast<double>(re_rows));
  return 0;
}

}  // namespace
}  // namespace auric::bench

int main(int argc, char** argv) {
  return auric::bench::run_bench(argc, argv, "Fig. 12: engineer labeling of mismatches",
                                 auric::bench::body);
}
