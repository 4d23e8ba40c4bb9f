// Scaling study (not a paper table): how the headline conclusions behave as
// the synthetic network grows toward the paper's production scale.
//
// Checks, at each scale: (a) local CF stays ahead of global CF, (b) both
// stay in the mid-90s accuracy band, (c) learning + LOO evaluation cost
// grows linearly in the number of configured values (the engine is built
// from hash-join group-bys, nothing quadratic).
#include <cstdio>

#include "common.h"
#include "eval/cf_eval.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/timer.h"

namespace auric::bench {
namespace {

int body(util::Args& args) {
  // Note: this bench ignores the shared --scale knob and sweeps its own.
  ExperimentContext base = make_context(args);
  const std::string scales_flag =
      args.get_string("scales", "25,55,110", "comma list of eNodeB-per-market scales");
  const int markets_eval = static_cast<int>(
      args.get_int("eval-markets", 4, "markets evaluated per scale (cost knob)"));
  if (args.help_requested()) return 0;

  util::Table table(
      {"scale", "carriers", "values", "global CF %", "local CF %", "delta", "eval s"});
  for (const std::string& token : util::split(scales_flag, ',')) {
    netsim::TopologyParams topo_params = base.topo_params;
    topo_params.base_enodebs_per_market = std::stoi(std::string(util::trim(token)));
    const netsim::Topology topology = netsim::generate_topology(topo_params);
    const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topology);
    const config::GroundTruthModel ground_truth(topology, schema, base.catalog,
                                                base.gt_params);
    const config::ConfigAssignment assignment = ground_truth.assign();

    util::Timer timer;
    double acc[2];
    for (int local = 0; local <= 1; ++local) {
      core::AuricOptions options;
      options.use_proximity = local == 1;
      double sum = 0.0;
      for (int m = 0; m < markets_eval; ++m) {
        options.market = static_cast<netsim::MarketId>(m);
        sum += eval::overall_accuracy(eval::evaluate_all(
            core::AuricEngine(topology, schema, base.catalog, assignment, options)));
      }
      acc[local] = 100.0 * sum / markets_eval;
    }
    table.add_row({token, util::with_commas(static_cast<long long>(topology.carrier_count())),
                   util::with_commas(static_cast<long long>(assignment.total_configured())),
                   util::format_fixed(acc[0], 2), util::format_fixed(acc[1], 2),
                   util::format_fixed(acc[1] - acc[0], 2),
                   util::format_fixed(timer.elapsed_seconds(), 1)});
  }
  table.print();
  std::printf("\nexpected shapes: local > global at every scale; accuracy stable in the\n"
              "mid-90s band; evaluation time linear in the configured-value count.\n");
  return 0;
}

}  // namespace
}  // namespace auric::bench

int main(int argc, char** argv) {
  return auric::bench::run_bench(argc, argv, "Scaling study: conclusions vs dataset size",
                                 auric::bench::body);
}
