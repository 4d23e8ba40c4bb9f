// §4.3.2 of the paper: "Importance of geographical proximity".
//
// Reproduces the headline comparison between collaborative filtering with
// global voting and with local (1-hop X2 neighborhood) voting:
//   4 deep-dive markets:  global 95.48%  ->  local 96.14%
//   all 28 markets:       global 96.5%   ->  local 96.9%
// The expected *shape*: local > global, by a fraction of a percent, with the
// gap explained by geographically local tuning pockets that only the local
// learner can resolve.
#include <cstdio>

#include "common.h"
#include "eval/cf_eval.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace auric::bench {
namespace {

int body(util::Args& args) {
  ExperimentContext ctx = make_context(args);
  const int deep_dive = static_cast<int>(
      args.get_int("deep-dive-markets", 4, "number of deep-dive markets (Table 3 subset)"));
  if (args.help_requested()) return 0;

  core::AuricOptions global_opts;
  global_opts.use_proximity = false;
  core::AuricOptions local_opts;  // 1-hop X2 proximity first

  util::Table table({"market", "rows", "global CF acc %", "local CF acc %", "delta"});
  double global_sum = 0.0;
  double local_sum = 0.0;
  double global_deep = 0.0;
  double local_deep = 0.0;
  util::Timer timer;
  for (int m = 0; m < ctx.topo_params.num_markets; ++m) {
    global_opts.market = local_opts.market = static_cast<netsim::MarketId>(m);
    const auto global_results = eval::evaluate_all(
        core::AuricEngine(ctx.topology, ctx.schema, ctx.catalog, ctx.assignment, global_opts));
    const auto local_results = eval::evaluate_all(
        core::AuricEngine(ctx.topology, ctx.schema, ctx.catalog, ctx.assignment, local_opts));
    const double g = 100.0 * eval::overall_accuracy(global_results);
    const double l = 100.0 * eval::overall_accuracy(local_results);
    global_sum += g;
    local_sum += l;
    if (m < deep_dive) {
      global_deep += g;
      local_deep += l;
    }
    std::size_t rows = 0;
    for (const auto& r : global_results) rows += r.rows;
    table.add_row({ctx.topology.markets[static_cast<std::size_t>(m)].name,
                   util::with_commas(static_cast<long long>(rows)), util::format_fixed(g, 2),
                   util::format_fixed(l, 2), util::format_fixed(l - g, 2)});
    util::log_info(util::format("market %d done (%.1fs elapsed)", m + 1,
                                timer.elapsed_seconds()));
  }
  table.print();

  const double markets = ctx.topo_params.num_markets;
  std::printf("\n%d deep-dive markets: global %.2f%% -> local %.2f%%   [paper: 95.48 -> 96.14]\n",
              deep_dive, global_deep / deep_dive, local_deep / deep_dive);
  std::printf("all %d markets:      global %.2f%% -> local %.2f%%   [paper: 96.5 -> 96.9]\n",
              ctx.topo_params.num_markets, global_sum / markets, local_sum / markets);
  return 0;
}

}  // namespace
}  // namespace auric::bench

int main(int argc, char** argv) {
  return auric::bench::run_bench(
      argc, argv, "Sec. 4.3.2: global vs local collaborative filtering", auric::bench::body);
}
