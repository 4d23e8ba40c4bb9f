#include "eval/variability.h"

#include <algorithm>

#include "ml/metrics.h"

namespace auric::eval {

namespace {

/// Accumulates one parameter column: per-market value vectors (raw units).
void accumulate(const config::ParamColumn& col, const config::ValueDomain& domain,
                const netsim::Topology& topology, bool pairwise, ParamVariability& out,
                std::vector<std::vector<config::ValueIndex>>& per_market,
                std::vector<std::vector<double>>& raw_per_market) {
  for (std::size_t i = 0; i < col.configured_count(); ++i) {
    const config::ValueIndex v = col.value_at(i);
    const std::size_t e = col.entity(i);
    const netsim::CarrierId subject = pairwise ? topology.edges[e].from
                                               : static_cast<netsim::CarrierId>(e);
    const auto market = static_cast<std::size_t>(topology.carrier(subject).market);
    per_market[market].push_back(v);
    raw_per_market[market].push_back(domain.value(v));
    ++out.configured_values;
  }
}

}  // namespace

std::vector<ParamVariability> analyze_variability(const netsim::Topology& topology,
                                                  const config::ParamCatalog& catalog,
                                                  const config::ConfigAssignment& assignment) {
  std::vector<ParamVariability> out;
  out.reserve(catalog.size());
  const std::size_t markets = topology.markets.size();

  for (std::size_t p = 0; p < catalog.size(); ++p) {
    const auto param = static_cast<config::ParamId>(p);
    const config::ParamDef& def = catalog.at(param);
    ParamVariability var;
    var.param = param;

    std::vector<std::vector<config::ValueIndex>> per_market(markets);
    std::vector<std::vector<double>> raw_per_market(markets);
    if (def.kind == config::ParamKind::kSingular) {
      const auto& ids = catalog.singular_ids();
      const std::size_t pos = static_cast<std::size_t>(
          std::find(ids.begin(), ids.end(), param) - ids.begin());
      accumulate(assignment.singular[pos], def.domain, topology, false, var, per_market,
                 raw_per_market);
    } else {
      const auto& ids = catalog.pairwise_ids();
      const std::size_t pos = static_cast<std::size_t>(
          std::find(ids.begin(), ids.end(), param) - ids.begin());
      accumulate(assignment.pairwise[pos], def.domain, topology, true, var, per_market,
                 raw_per_market);
    }

    std::vector<config::ValueIndex> all;
    var.distinct_per_market.resize(markets);
    for (std::size_t m = 0; m < markets; ++m) {
      var.distinct_per_market[m] = ml::distinct_value_count(per_market[m]);
      all.insert(all.end(), per_market[m].begin(), per_market[m].end());
    }
    var.distinct_overall = ml::distinct_value_count(all);

    // §2.6: skewness "of the distribution of the configuration parameter
    // values around its mean ... across 28 markets". Each market's team
    // tunes around its own baseline, so the meaningful asymmetry is within
    // markets; we compute per-market skewness and aggregate weighted by
    // market sample size (signed, so one-sided tuning shows through).
    double weighted = 0.0;
    double weight = 0.0;
    for (std::size_t m = 0; m < markets; ++m) {
      if (raw_per_market[m].size() < 2) continue;
      weighted += ml::skewness(raw_per_market[m]) * static_cast<double>(raw_per_market[m].size());
      weight += static_cast<double>(raw_per_market[m].size());
    }
    var.skewness = weight > 0 ? weighted / weight : 0.0;
    out.push_back(std::move(var));
  }
  return out;
}

SkewnessSummary summarize_skewness(const std::vector<ParamVariability>& variability) {
  SkewnessSummary summary;
  for (const ParamVariability& var : variability) {
    switch (ml::skewness_band(var.skewness)) {
      case ml::SkewnessBand::kSymmetric: ++summary.symmetric; break;
      case ml::SkewnessBand::kModeratelySkewed: ++summary.moderate; break;
      case ml::SkewnessBand::kHighlySkewed: ++summary.high; break;
    }
  }
  return summary;
}

}  // namespace auric::eval
