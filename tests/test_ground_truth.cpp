#include "config/ground_truth.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::config {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology();
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  ParamCatalog catalog = ParamCatalog::standard();
};

TEST(GroundTruth, AssignmentIsDeterministic) {
  Fixture f;
  const GroundTruthModel model_a(f.topo, f.schema, f.catalog);
  const GroundTruthModel model_b(f.topo, f.schema, f.catalog);
  const ConfigAssignment a = model_a.assign();
  const ConfigAssignment b = model_b.assign();
  ASSERT_EQ(a.singular.size(), b.singular.size());
  for (std::size_t si = 0; si < a.singular.size(); ++si) {
    EXPECT_EQ(a.singular[si].value, b.singular[si].value);
    EXPECT_EQ(test::intended_entries(a.singular[si]), test::intended_entries(b.singular[si]));
  }
  for (std::size_t pi = 0; pi < a.pairwise.size(); ++pi) {
    EXPECT_EQ(a.pairwise[pi].value, b.pairwise[pi].value);
  }
}

TEST(GroundTruth, SeedChangesAssignment) {
  Fixture f;
  GroundTruthParams p1;
  GroundTruthParams p2;
  p2.seed = p1.seed + 1;
  const ConfigAssignment a = GroundTruthModel(f.topo, f.schema, f.catalog, p1).assign();
  const ConfigAssignment b = GroundTruthModel(f.topo, f.schema, f.catalog, p2).assign();
  std::size_t diffs = 0;
  for (std::size_t si = 0; si < a.singular.size(); ++si) {
    for (std::size_t c = 0; c < a.singular[si].entities(); ++c) {
      diffs += a.singular[si].value[c] != b.singular[si].value[c] ? 1 : 0;
    }
  }
  EXPECT_GT(diffs, 0u);
}

TEST(GroundTruth, ValuesStayInDomainsAndCausesAreConsistent) {
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const ConfigAssignment assignment = model.assign();
  for (std::size_t si = 0; si < assignment.singular.size(); ++si) {
    const ParamDef& def = f.catalog.at(f.catalog.singular_ids()[si]);
    const ParamColumn& col = assignment.singular[si];
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      EXPECT_TRUE(def.domain.contains(col.value_at(i)));
      EXPECT_TRUE(def.domain.contains(col.intended_at(i)));
      const Cause cause = col.cause_at(i);
      if (col.value_at(i) != col.intended_at(i)) {
        // Only trials, stale leftovers and noise may diverge from intent.
        EXPECT_TRUE(cause == Cause::kTrial || cause == Cause::kStaleLeftover ||
                    cause == Cause::kNoise)
            << cause_name(cause);
      } else {
        EXPECT_NE(cause, Cause::kStaleLeftover);
        EXPECT_NE(cause, Cause::kNoise);
      }
    }
  }
}

TEST(GroundTruth, FullActivationParamsAreAlwaysConfigured) {
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const ConfigAssignment assignment = model.assign();
  for (std::size_t si = 0; si < assignment.singular.size(); ++si) {
    const ParamDef& def = f.catalog.at(f.catalog.singular_ids()[si]);
    if (def.activation < 1.0) continue;
    EXPECT_EQ(assignment.singular[si].configured_count(), f.topo.carrier_count()) << def.name;
  }
}

TEST(GroundTruth, PartialActivationLeavesSlotsUnset) {
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const ConfigAssignment assignment = model.assign();
  bool found_partial = false;
  for (std::size_t si = 0; si < assignment.singular.size(); ++si) {
    const ParamDef& def = f.catalog.at(f.catalog.singular_ids()[si]);
    if (def.activation <= 0.7) {
      const std::size_t configured = assignment.singular[si].configured_count();
      EXPECT_LT(configured, f.topo.carrier_count()) << def.name;
      EXPECT_GT(configured, 0u) << def.name;
      found_partial = true;
    }
  }
  EXPECT_TRUE(found_partial);
}

TEST(GroundTruth, PairwiseRespectsRelationClass) {
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const ConfigAssignment assignment = model.assign();
  for (std::size_t pi = 0; pi < assignment.pairwise.size(); ++pi) {
    const ParamDef& def = f.catalog.at(f.catalog.pairwise_ids()[pi]);
    const ParamColumn& col = assignment.pairwise[pi];
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      const auto& edge = f.topo.edges[col.entity(i)];
      const bool intra = f.topo.carrier(edge.from).frequency_mhz ==
                         f.topo.carrier(edge.to).frequency_mhz;
      EXPECT_EQ(intra, def.relation == RelationClass::kIntraFrequency) << def.name;
    }
  }
}

TEST(GroundTruth, PerFrequencyRelationScopeUsesOneRepresentativeNeighbor) {
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const ConfigAssignment assignment = model.assign();
  for (std::size_t pi = 0; pi < assignment.pairwise.size(); ++pi) {
    const ParamDef& def = f.catalog.at(f.catalog.pairwise_ids()[pi]);
    if (def.scope != PairScope::kPerFrequencyRelation) continue;
    const ParamColumn& col = assignment.pairwise[pi];
    // Per (carrier, neighbor frequency): at most one configured edge.
    for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
      std::set<int> seen_freqs;
      for (std::size_t e = f.topo.edge_offsets[c]; e < f.topo.edge_offsets[c + 1]; ++e) {
        if (col.value[e] == kUnset) continue;
        const int freq = f.topo.carrier(f.topo.edges[e].to).frequency_mhz;
        EXPECT_TRUE(seen_freqs.insert(freq).second)
            << def.name << " configured twice for the same frequency relation";
      }
    }
  }
}

TEST(GroundTruth, PerFrequencyRelationIsConfiguredOnItsLowestIdNeighborOnly) {
  // For a per-relation parameter, every (carrier, neighbor frequency)
  // relation of the parameter's class has exactly one configured edge, to
  // the carrier's lowest-id neighbor of that frequency -- on every carrier
  // where the parameter is active at all (activation is per site, so a
  // carrier's edges are all active or all unset).
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const ConfigAssignment assignment = model.assign();
  std::size_t relations_checked = 0;
  for (std::size_t pi = 0; pi < assignment.pairwise.size(); ++pi) {
    const ParamDef& def = f.catalog.at(f.catalog.pairwise_ids()[pi]);
    if (def.scope != PairScope::kPerFrequencyRelation) continue;
    const ParamColumn& col = assignment.pairwise[pi];
    for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
      const auto carrier = static_cast<netsim::CarrierId>(c);
      const int own_freq = f.topo.carrier(carrier).frequency_mhz;
      std::map<int, netsim::CarrierId> lowest;  // frequency -> lowest-id neighbor
      for (netsim::CarrierId n : f.topo.neighborhood(carrier)) {
        const int freq = f.topo.carrier(n).frequency_mhz;
        const bool matches = (def.relation == RelationClass::kIntraFrequency) == (freq == own_freq);
        if (!matches) continue;
        const auto [it, fresh] = lowest.try_emplace(freq, n);
        if (!fresh) it->second = std::min(it->second, n);
      }
      std::map<int, std::vector<netsim::CarrierId>> configured;
      for (std::size_t e = f.topo.edge_offsets[c]; e < f.topo.edge_offsets[c + 1]; ++e) {
        if (col.value[e] == kUnset) continue;
        const netsim::CarrierId to = f.topo.edges[e].to;
        configured[f.topo.carrier(to).frequency_mhz].push_back(to);
      }
      if (configured.empty()) continue;  // parameter inactive on this carrier's site
      ASSERT_EQ(configured.size(), lowest.size()) << def.name << " carrier " << c;
      for (const auto& [freq, rep] : lowest) {
        EXPECT_EQ(configured[freq], std::vector<netsim::CarrierId>{rep})
            << def.name << " carrier " << c << " frequency " << freq;
        ++relations_checked;
      }
    }
  }
  EXPECT_GT(relations_checked, 0u);
}

TEST(GroundTruth, RulebookValueIsAttributePure) {
  // Two carriers with identical attributes must get identical rule-book
  // values regardless of where they sit.
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  const auto codes = f.schema.encode_all(f.topo);
  for (ParamId p : f.catalog.singular_ids()) {
    for (std::size_t i = 0; i + 1 < f.topo.carrier_count(); ++i) {
      const auto& a = f.topo.carriers[i];
      const auto& b = f.topo.carriers[i + 1];
      bool same = true;
      for (std::size_t attr = 0; attr < f.schema.attribute_count(); ++attr) {
        same &= codes[attr][i] == codes[attr][i + 1];
      }
      if (same) {
        EXPECT_EQ(model.rulebook_value(p, a), model.rulebook_value(p, b));
      }
    }
  }
}

TEST(GroundTruth, TrueDependentAttrsAreExposed) {
  Fixture f;
  const GroundTruthModel model(f.topo, f.schema, f.catalog);
  for (std::size_t p = 0; p < f.catalog.size(); ++p) {
    const auto& deps = model.true_dependent_attrs(static_cast<ParamId>(p));
    EXPECT_GE(deps.size(), 1u);
    EXPECT_LE(deps.size(), 3u);
    for (std::size_t attr : deps) EXPECT_LT(attr, f.schema.attribute_count());
  }
}

TEST(GroundTruth, NoiseRateControlsDivergence) {
  Fixture f;
  GroundTruthParams quiet;
  quiet.noise_rate = 0.0;
  quiet.stale_rate = 0.0;
  quiet.trial_param_prob = 0.0;
  const ConfigAssignment assignment =
      GroundTruthModel(f.topo, f.schema, f.catalog, quiet).assign();
  for (const ParamColumn& col : assignment.singular) {
    for (std::size_t i = 0; i < col.configured_count(); ++i) {
      EXPECT_EQ(col.value_at(i), col.intended_at(i));
    }
  }
}

TEST(GroundTruth, AssignmentStaysAtItsOccupancyOnTheDefaultWorld) {
  // The default world (28 markets x 55 eNodeBs) under `auric generate`'s
  // ground truth: 1.09M of 5.62M slots are configured. Stored at their
  // configured count, 13 bytes each with no slack, the columns take about
  // 13.5 MiB (dense per-slot arrays took 48.3 MiB).
  const netsim::Topology topo = netsim::generate_topology(netsim::TopologyParams{});
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const ParamCatalog catalog = ParamCatalog::standard();
  GroundTruthParams truth;
  truth.seed = netsim::TopologyParams{}.seed + 6;
  const ConfigAssignment assignment = GroundTruthModel(topo, schema, catalog, truth).assign();
  const std::size_t bytes = assignment.heap_bytes();
  EXPECT_EQ(bytes, 13 * assignment.total_configured());
  EXPECT_LT(bytes, std::size_t{16} << 20) << bytes;
}

TEST(CauseNames, AllDistinct) {
  EXPECT_STREQ(cause_name(Cause::kLocalPocket), "local-pocket");
  EXPECT_STREQ(cause_name(Cause::kHiddenTerrain), "hidden-terrain");
  EXPECT_STREQ(cause_name(Cause::kStaleLeftover), "stale-leftover");
}

}  // namespace
}  // namespace auric::config
