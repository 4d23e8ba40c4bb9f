// Figs. 11a-11d of the paper: local-learner (geographical proximity)
// accuracy for the four highest-variability parameters, across all markets,
// with each market's distinct-value count on the secondary axis.
//
// Shapes to reproduce:
//   - markets differ in variability and accuracy tracks it;
//   - a few markets under-perform even at comparable variability (hidden
//     attributes — terrain — concentrated there; markets 6/7 in Fig. 11a).
#include <algorithm>
#include <cstdio>

#include "common.h"
#include "eval/cf_eval.h"
#include "eval/variability.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/strings.h"
#include "util/table.h"

namespace auric::bench {
namespace {

int body(util::Args& args) {
  ExperimentContext ctx = make_context(args);
  const int top_params = static_cast<int>(
      args.get_int("top-params", 4, "number of highest-variability parameters to chart"));
  const std::string csv_path =
      args.get_string("csv", "", "optional CSV output prefix (one file per parameter)");
  if (args.help_requested()) return 0;

  std::vector<eval::ParamVariability> variability =
      eval::analyze_variability(ctx.topology, ctx.catalog, ctx.assignment);
  std::sort(variability.begin(), variability.end(),
            [](const auto& a, const auto& b) { return a.distinct_overall > b.distinct_overall; });

  // Market-major: learn each market's local-learner engine once and score
  // every charted parameter on it; results[i][m] feeds series i's table.
  const std::size_t series =
      std::min(static_cast<std::size_t>(std::max(top_params, 0)), variability.size());
  std::vector<std::vector<eval::CfParamResult>> results(series);
  core::AuricOptions options;
  for (std::size_t m = 0; m < ctx.topology.markets.size(); ++m) {
    options.market = static_cast<netsim::MarketId>(m);
    const core::AuricEngine engine(ctx.topology, ctx.schema, ctx.catalog, ctx.assignment,
                                   options);
    for (std::size_t i = 0; i < series; ++i) {
      results[i].push_back(eval::evaluate_param(engine, variability[i].param));
    }
  }

  for (std::size_t i = 0; i < series; ++i) {
    const config::ParamId param = variability[i].param;
    util::print_banner(util::format("Fig. 11 series %zu: %s (%zu distinct network-wide)", i + 1,
                                    ctx.catalog.at(param).name.c_str(),
                                    variability[i].distinct_overall));
    util::Table table({"market", "rows", "distinct values", "local CF accuracy %"});
    std::unique_ptr<util::CsvWriter> csv;
    if (!csv_path.empty()) {
      csv = std::make_unique<util::CsvWriter>(
          csv_path + "_" + ctx.catalog.at(param).name + ".csv",
          std::vector<std::string>{"market", "distinct", "accuracy"});
    }
    for (std::size_t m = 0; m < ctx.topology.markets.size(); ++m) {
      const eval::CfParamResult& result = results[i][m];
      const std::size_t distinct = variability[i].distinct_per_market[m];
      table.add_row({ctx.topology.markets[m].name, std::to_string(result.rows),
                     std::to_string(distinct), util::format_fixed(100.0 * result.accuracy(), 2)});
      if (csv) {
        csv->add_row({std::to_string(m + 1), std::to_string(distinct),
                      util::format_fixed(result.accuracy(), 4)});
      }
    }
    table.print();
  }
  std::printf("\n[paper: accuracy varies with per-market variability; some markets are lower even"
              " at similar\nvariability, pointing at attributes missing from the learners]\n");
  return 0;
}

}  // namespace
}  // namespace auric::bench

int main(int argc, char** argv) {
  return auric::bench::run_bench(
      argc, argv, "Figs. 11a-d: local learner accuracy for high-variability parameters",
      auric::bench::body);
}
