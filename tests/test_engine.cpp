#include "core/engine.h"

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "netsim/generator.h"
#include "test_helpers.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::chain_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
};

AuricOptions relaxed() {
  AuricOptions options;
  options.backoff_levels = 2;
  return options;
}

TEST(AuricEngine, RecommendsTheBandRuleForEveryCarrier) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  for (const netsim::Carrier& c : f.topo.carriers) {
    const Recommendation rec = engine.recommend(0, c.id);
    EXPECT_EQ(rec.value, c.band == netsim::Band::kLow ? 3 : 7) << "carrier " << c.id;
    EXPECT_NE(rec.source, RecommendationSource::kRulebookDefault);
  }
}

TEST(AuricEngine, PairwiseRecommendationNeedsNeighbor) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  EXPECT_THROW(engine.recommend(1, 0), std::invalid_argument);
  EXPECT_THROW(engine.recommend(0, 0, 2), std::invalid_argument);
  const Recommendation rec = engine.recommend(1, 0, 2);  // intra-frequency edge
  EXPECT_EQ(rec.value, 2);
}

TEST(AuricEngine, LocalSourcePreferredWhenProximityOn) {
  Fixture f;
  AuricOptions options = relaxed();
  options.use_proximity = true;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  // Carrier 0's neighborhood {1, 2} contains matching carrier 2 only; the
  // quorum (3) cannot be met locally, so the decision comes from the global
  // vote.
  const Recommendation rec = engine.recommend(0, 0);
  EXPECT_EQ(rec.source, RecommendationSource::kGlobalVote);
  EXPECT_EQ(rec.value, 3);
}

TEST(AuricEngine, GlobalOnlyWhenProximityOff) {
  Fixture f;
  AuricOptions options = relaxed();
  options.use_proximity = false;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  const Recommendation rec = engine.recommend(0, 0);
  EXPECT_EQ(rec.source, RecommendationSource::kGlobalVote);
}

TEST(AuricEngine, FallsBackToRulebookDefaultWithoutEvidence) {
  Fixture f;
  // Scatter the values so no peer group reaches a 75% vote anywhere.
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    const auto v = static_cast<config::ValueIndex>(c % 11);
    f.assignment.singular[0].set(c, v, v, config::Cause::kAttributeRule);
  }
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const Recommendation rec = engine.recommend(0, 0);
  EXPECT_EQ(rec.source, RecommendationSource::kRulebookDefault);
  EXPECT_EQ(rec.value, f.catalog.at(0).default_index);  // default = 5
}

TEST(AuricEngine, BatchHelpersCoverEveryParameter) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  EXPECT_EQ(engine.recommend_singular(0).size(), f.catalog.singular_ids().size());
  EXPECT_EQ(engine.recommend_pairwise(0, 2).size(), f.catalog.pairwise_ids().size());
}

TEST(AuricEngine, ExplainNamesTheEvidence) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const Recommendation rec = engine.recommend(0, 0);
  const std::string explanation = engine.explain(rec, 0);
  EXPECT_NE(explanation.find("toySingular"), std::string::npos);
  EXPECT_NE(explanation.find("support"), std::string::npos);
  EXPECT_NE(explanation.find("global-vote"), std::string::npos);
}

TEST(AuricEngine, ExcludeSelfChangesThinVotes) {
  Fixture f;
  // Give one 700 MHz carrier a unique value; with exclude_self its own
  // observation cannot vote for itself.
  test::set_value(f.assignment.singular[0], 4, 10);
  AuricOptions options = relaxed();
  options.max_dependent = 6;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  const Recommendation with_self = engine.recommend(0, 4, netsim::kInvalidCarrier, false);
  const Recommendation without_self = engine.recommend(0, 4, netsim::kInvalidCarrier, true);
  EXPECT_EQ(without_self.value, 3);  // the other 700 MHz carriers
  // Including self, the own unique value forms part of the evidence; the
  // recommendation may differ (or the vote may fail) but must never be both
  // identical in value AND in evidence counts.
  EXPECT_TRUE(with_self.value != without_self.value ||
              with_self.group_size != without_self.group_size);
}

TEST(AuricEngine, ColdStartRecommendsFromAttributes) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  // A brand-new 700 MHz carrier, not in the inventory, planned next to
  // site 0: its attributes match the low-band peer group.
  netsim::Carrier planned = f.topo.carriers[0];
  planned.id = static_cast<netsim::CarrierId>(f.topo.carrier_count() + 100);
  const std::vector<netsim::CarrierId> x2{0, 2};
  const Recommendation rec = engine.recommend_for(planned, x2, 0);
  EXPECT_EQ(rec.value, 3);
  EXPECT_NE(rec.source, RecommendationSource::kRulebookDefault);
  // The full-batch helper covers every singular parameter.
  EXPECT_EQ(engine.recommend_for_all_singular(planned, x2).size(),
            f.catalog.singular_ids().size());
}

TEST(AuricEngine, ColdStartUnseenAttributeFallsToDefault) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  netsim::Carrier alien = f.topo.carriers[0];
  alien.frequency_mhz = 2600;  // never observed in the chain fixture
  const Recommendation rec = engine.recommend_for(alien, {}, 0);
  // §6 "bootstrapping the unobserved": stick with the default.
  EXPECT_EQ(rec.source, RecommendationSource::kRulebookDefault);
  EXPECT_EQ(rec.value, f.catalog.at(0).default_index);
}

TEST(AuricEngine, ColdStartPairwiseNeedsNeighbor) {
  Fixture f;
  const AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, relaxed());
  const netsim::Carrier planned = f.topo.carriers[0];
  EXPECT_THROW(engine.recommend_for(planned, {}, 1), std::invalid_argument);
  const Recommendation rec = engine.recommend_for(planned, {}, 1, /*neighbor=*/2);
  EXPECT_EQ(rec.value, 2);
}

TEST(AuricEngine, AttributeWordOverflowFailsConstruction) {
  // 256 carriers, each with its own value on nine attributes: 9 bits each
  // (256 codes plus the unseen sentinel), 81+ bits in all — more than one
  // packed word holds. Construction must say so instead of mis-keying.
  netsim::Topology topo = test::chain_topology(64, 64);
  for (netsim::Carrier& c : topo.carriers) {
    c.frequency_mhz = 100 + c.id;
    c.carrier_info = c.id;
    c.bandwidth_mhz = c.id;
    c.hardware = c.id;
    c.cell_size_miles = c.id;
    c.tracking_area_code = c.id;
    c.vendor = c.id;
    c.neighbor_channel = c.id;
    c.software_version = c.id;
  }
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = test::tiny_catalog();
  const config::ConfigAssignment assignment = test::tiny_assignment(topo);
  try {
    const AuricEngine engine(topo, schema, catalog, assignment, relaxed());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("more than 64"), std::string::npos) << message;
    EXPECT_NE(message.find("tracking_area_code=9"), std::string::npos) << message;
    EXPECT_NE(message.find("market=2"), std::string::npos) << message;
  }
}

/// Sum of `count(model)` over every backoff level of every parameter.
template <typename Count>
std::size_t sum_over_levels(const AuricEngine& engine, Count&& count) {
  std::size_t sum = 0;
  for (std::size_t p = 0; p < engine.catalog().size(); ++p) {
    const BackoffVoting& voting = engine.voting(static_cast<config::ParamId>(p));
    for (int level = 0; level < voting.level_count(); ++level) {
      sum += count(voting.model_at(level));
    }
  }
  return sum;
}

/// Bytes of every backoff level's voting slots, 16 per slot.
std::size_t voting_slot_bytes(const AuricEngine& engine) {
  return 16 * sum_over_levels(engine, [](const VotingModel& m) { return m.slot_count(); });
}

/// Live (label, count) pairs of every backoff level's runs.
std::size_t voting_pairs(const AuricEngine& engine) {
  return sum_over_levels(engine, [](const VotingModel& m) { return m.pair_count(); });
}

TEST(AuricEngine, VotingTablesStayAtTheirOccupancyOnTheDefaultWorld) {
  // The default world (28 markets x 55 eNodeBs) under `auric generate`'s
  // ground truth. Tables sized to their group count keep every level's
  // slots under 20 MiB (about 19.3 MiB; power-of-two tables took 42.5).
  // Groups of one label (about 85% of them) keep their vote in the slot, so
  // the runs hold under 0.4M pairs (1.11M when every group had a run).
  const netsim::Topology topo = netsim::generate_topology(netsim::TopologyParams{});
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthParams truth;
  truth.seed = netsim::TopologyParams{}.seed + 6;
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog, truth).assign();
  const AuricEngine fresh(topo, schema, catalog, assignment);
  const std::size_t fresh_bytes = voting_slot_bytes(fresh);
  EXPECT_LT(fresh_bytes, std::size_t{20} << 20) << fresh_bytes;
  const std::size_t fresh_pairs = voting_pairs(fresh);
  EXPECT_LT(fresh_pairs, std::size_t{400'000}) << fresh_pairs;

  // An incremental relearn that adds groups grows a table by an eighth at
  // a time, not by doubling: learned with every 16th carrier and edge
  // unset, then relearned onto the full assignment, the engine's tables
  // stay within 15% of the fresh learn's. Its groups end in the form a
  // fresh build gives them, so its run pairs stay within 15% too.
  config::ConfigAssignment sparse;
  const auto thinned = [](const config::ParamColumn& column) {
    config::ParamColumn out(column.entities());
    for (std::size_t i = 0; i < column.configured_count(); ++i) {
      if (column.entity(i) % 16 == 0) continue;
      out.append(column.entity(i), column.value_at(i), column.intended_at(i), column.cause_at(i));
    }
    return out;
  };
  for (const auto& column : assignment.singular) sparse.singular.push_back(thinned(column));
  for (const auto& column : assignment.pairwise) sparse.pairwise.push_back(thinned(column));
  AuricEngine relearned(topo, schema, catalog, sparse);
  IncrementalRelearnStats stats;
  relearned.incremental_relearn(assignment, {}, &stats);
  EXPECT_GT(stats.rows_added, 0u);
  const std::size_t relearned_bytes = voting_slot_bytes(relearned);
  EXPECT_LE(relearned_bytes, fresh_bytes + fresh_bytes * 15 / 100) << relearned_bytes;
  EXPECT_GE(relearned_bytes, fresh_bytes - fresh_bytes * 15 / 100) << relearned_bytes;
  const std::size_t relearned_pairs = voting_pairs(relearned);
  EXPECT_LE(relearned_pairs, fresh_pairs + fresh_pairs * 15 / 100) << relearned_pairs;
  EXPECT_GE(relearned_pairs, fresh_pairs - fresh_pairs * 15 / 100) << relearned_pairs;
}

TEST(AuricEngine, PairLabelRowsStayAtTheirOccupancyOnTheDefaultWorld) {
  // The default world's pair-wise labels: 13,470 carriers x 26 columns of
  // bucket offsets plus one 4-byte cell per configured relation (about
  // 3.8 MiB; the dense edge x column matrix took 9.7 MiB). A relearn onto
  // the full assignment from one learned with every 16th edge unset
  // rebuilds exactly the rows a fresh learn builds.
  const netsim::Topology topo = netsim::generate_topology(netsim::TopologyParams{});
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::GroundTruthParams truth;
  truth.seed = netsim::TopologyParams{}.seed + 6;
  const config::ConfigAssignment assignment =
      config::GroundTruthModel(topo, schema, catalog, truth).assign();
  const AuricEngine fresh(topo, schema, catalog, assignment);
  const PairLabelRows& rows = fresh.pair_label_rows();
  std::size_t configured = 0;
  for (const auto& column : assignment.pairwise) configured += column.configured_count();
  EXPECT_EQ(rows.configured_count(), configured);
  EXPECT_EQ(rows.heap_bytes(),
            4 * (topo.carrier_count() * catalog.pairwise_ids().size() + 1) + 4 * configured);
  EXPECT_LT(rows.heap_bytes(), std::size_t{4} << 20) << rows.heap_bytes();

  config::ConfigAssignment sparse = assignment;
  for (auto& column : sparse.pairwise) {
    config::ParamColumn thinned(column.entities());
    for (std::size_t i = 0; i < column.configured_count(); ++i) {
      if (column.entity(i) % 16 == 0) continue;
      thinned.append(column.entity(i), column.value_at(i), column.intended_at(i),
                     column.cause_at(i));
    }
    column = std::move(thinned);
  }
  AuricEngine relearned(topo, schema, catalog, sparse);
  EXPECT_LT(relearned.pair_label_rows().configured_count(), configured);
  relearned.incremental_relearn(assignment);
  EXPECT_EQ(relearned.pair_label_rows(), rows);
  EXPECT_EQ(relearned.pair_label_rows().heap_bytes(), rows.heap_bytes());
}

TEST(RecommendationSourceNames, Stable) {
  EXPECT_STREQ(recommendation_source_name(RecommendationSource::kLocalVote), "local-vote");
  EXPECT_STREQ(recommendation_source_name(RecommendationSource::kRulebookDefault),
               "rulebook-default");
}

}  // namespace
}  // namespace auric::core
