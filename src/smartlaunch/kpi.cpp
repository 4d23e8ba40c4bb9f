#include "smartlaunch/kpi.h"

#include <algorithm>
#include <cmath>

namespace auric::smartlaunch {

KpiModel::KpiModel(const netsim::Topology& topology, const config::ParamCatalog& catalog,
                   const config::ConfigAssignment& assignment, KpiOptions options) {
  quality_.assign(topology.carrier_count(), 1.0);

  const auto apply_column = [&](const config::ParamColumn& col, const config::ParamDef& def,
                                bool pairwise) {
    const int step_scale = std::max(1, def.domain.size() / 48);
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      if (col.value_at(i) == col.intended_at(i)) continue;
      const std::size_t e = col.entity(i);
      const netsim::CarrierId subject =
          pairwise ? topology.edges[e].from : static_cast<netsim::CarrierId>(e);
      const double deviation =
          std::fabs(static_cast<double>(col.value_at(i) - col.intended_at(i))) /
          static_cast<double>(step_scale);
      quality_[static_cast<std::size_t>(subject)] -=
          options.penalty_per_deviation * std::min(3.0, deviation);
    }
  };

  for (std::size_t si = 0; si < assignment.singular.size(); ++si) {
    apply_column(assignment.singular[si], catalog.at(catalog.singular_ids()[si]), false);
  }
  for (std::size_t pi = 0; pi < assignment.pairwise.size(); ++pi) {
    apply_column(assignment.pairwise[pi], catalog.at(catalog.pairwise_ids()[pi]), true);
  }
  for (double& q : quality_) q = std::max(options.min_quality, q);
}

double KpiModel::quality(netsim::CarrierId carrier) const {
  return quality_.at(static_cast<std::size_t>(carrier));
}

}  // namespace auric::smartlaunch
