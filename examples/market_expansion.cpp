// Market expansion scenario: a capacity build-out adds a batch of new
// carriers in one market; Auric configures them and we audit the result
// against the engineering intent.
//
// This is the workload the paper's introduction motivates: carriers are
// added "to keep up with the increasing demand in traffic", and each one
// must be configured accurately across dozens of parameters that local
// engineers have historically tuned by hand.
#include <cstdio>
#include <vector>

#include "config/catalog.h"
#include "config/ground_truth.h"
#include "core/engine.h"
#include "netsim/attributes.h"
#include "netsim/generator.h"
#include "util/rng.h"
#include "util/table.h"

int main() {
  using namespace auric;

  netsim::TopologyParams topo_params;
  topo_params.seed = 7;
  topo_params.num_markets = 6;
  topo_params.base_enodebs_per_market = 30;
  const netsim::Topology topology = netsim::generate_topology(topo_params);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topology);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  const config::GroundTruthModel ground_truth(topology, schema, catalog);
  const config::ConfigAssignment assignment = ground_truth.assign();
  const core::AuricEngine auric(topology, schema, catalog, assignment);

  // The expansion cohort: 25 carriers of market 3, treated as new (their own
  // current observations are excluded from every vote).
  const netsim::MarketId market = 2;
  util::Rng rng(99);
  std::vector<netsim::CarrierId> cohort = topology.carriers_in_market(market);
  rng.shuffle(cohort);
  cohort.resize(25);

  util::Table table({"carrier", "band", "params", "matched intent", "local votes", "defaults"});
  std::size_t total = 0;
  std::size_t matched = 0;
  for (netsim::CarrierId id : cohort) {
    std::size_t params = 0;
    std::size_t hits = 0;
    std::size_t local = 0;
    std::size_t defaults = 0;
    const auto recs = auric.recommend_singular(id);
    for (std::size_t si = 0; si < recs.size(); ++si) {
      // Compare against the engineering intent recorded by the ground truth.
      const config::ValueIndex intent =
          assignment.singular[si].intended_of(static_cast<std::size_t>(id));
      if (intent == config::kUnset) continue;
      ++params;
      hits += recs[si].value == intent ? 1 : 0;
      local += recs[si].source == core::RecommendationSource::kLocalVote ? 1 : 0;
      defaults += recs[si].source == core::RecommendationSource::kRulebookDefault ? 1 : 0;
    }
    total += params;
    matched += hits;
    table.add_row({std::to_string(id),
                   netsim::band_name(topology.carrier(id).band),
                   std::to_string(params), std::to_string(hits), std::to_string(local),
                   std::to_string(defaults)});
  }
  table.print();
  std::printf("\ncohort intent match: %zu / %zu singular parameters (%.1f%%)\n", matched, total,
              100.0 * static_cast<double>(matched) / static_cast<double>(total));
  std::printf("(the residue is exactly the locally-tuned knowledge a rule-book cannot carry;\n"
              "compare with the rule-book-only baseline in the paper's §2.4)\n");
  return 0;
}
