#include "common.h"

#include <cstdio>
#include <exception>

#include "util/log.h"
#include "util/obs_flags.h"
#include "util/strings.h"
#include "util/table.h"

namespace auric::bench {

obs::Histogram& phase_histogram(const std::string& phase) {
  return obs::MetricsRegistry::global().histogram(
      "auric_bench_phase_seconds", obs::default_seconds_bounds(),
      "bench harness phase wall-clock (s)", {{"phase", phase}});
}

ExperimentContext make_context(util::Args& args) {
  ExperimentContext ctx;
  ctx.topo_params.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1, "master random seed"));
  ctx.topo_params.num_markets =
      static_cast<int>(args.get_int("markets", 28, "number of markets"));
  ctx.topo_params.base_enodebs_per_market = static_cast<int>(
      args.get_int("scale", 55, "base eNodeBs per market (dataset size knob)"));
  if (args.help_requested()) return ctx;  // flags declared; skip the heavy build

  obs::ScopedTimer timer(phase_histogram("context"));
  ctx.topology = netsim::generate_topology(ctx.topo_params);
  ctx.schema = netsim::AttributeSchema::standard(ctx.topology);
  ctx.catalog = config::ParamCatalog::standard();
  ctx.gt_params.seed = ctx.topo_params.seed + 6;
  ctx.ground_truth = std::make_unique<config::GroundTruthModel>(ctx.topology, ctx.schema,
                                                                ctx.catalog, ctx.gt_params);
  ctx.assignment = ctx.ground_truth->assign();

  util::log_info(util::format(
      "context: %zu carriers, %zu eNodeBs, %d markets, %zu X2 edges, %zu configured values "
      "(%.1fs)",
      ctx.topology.carrier_count(), ctx.topology.enodebs.size(), ctx.topo_params.num_markets,
      ctx.topology.edge_count(), ctx.assignment.total_configured(), timer.stop()));
  return ctx;
}

int run_bench(int argc, char** argv, const char* title, int (*body)(util::Args& args)) {
  try {
    util::Args args(argc, argv);
    util::print_banner(title);
    const std::string metrics_out = args.get_string(
        "metrics-out", "", "write a metrics snapshot here after the run (.prom/.csv/.json)");
    const util::LivePlaneOptions live_options = util::declare_live_plane_flags(args);
    util::LivePlane live(args.help_requested() ? util::LivePlaneOptions{} : live_options);
    live.start();
    const int rc = body(args);  // bodies return immediately under --help
    if (args.help_requested()) {
      std::fputs(args.usage().c_str(), stdout);
      return 0;
    }
    args.check_unknown();
    if (!metrics_out.empty()) {
      obs::write_metrics_file(obs::MetricsRegistry::global(), metrics_out);
      util::log_info("metrics snapshot written to " + metrics_out);
    }
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", title, e.what());
    return 1;
  }
}

}  // namespace auric::bench
