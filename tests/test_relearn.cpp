// Incremental relearn (DESIGN.md §18): delta-applied engines must be
// indistinguishable from engines rebuilt from scratch — same label stores
// and dictionaries, same contingency tables, same chi-square results
// bit-for-bit, same voting groups, same recommendations —
// across adds, updates, erases and label-alphabet changes; the drift
// threshold and the ModelWatch union trigger gate the re-test; and the
// per-parameter fan-out is byte-identical at any thread count.
#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/engine.h"
#include "core/model_watch.h"
#include "test_helpers.h"

namespace auric::core {
namespace {

struct Fixture {
  netsim::Topology topo = test::chain_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);

  AuricOptions options() const {
    AuricOptions o;
    o.backoff_levels = 2;
    return o;
  }
};

/// Swaps the two observed values 3 and 7 on every configured slot.
void swap_values(config::ParamColumn& col) {
  for (std::size_t c = 0; c < col.entities(); ++c) {
    const config::ValueIndex v = std::as_const(col).value[c];
    if (v != config::kUnset) test::set_value(col, c, v == 3 ? 7 : 3);
  }
}

std::vector<VotingModel::GroupSummary> sorted_groups(const VotingModel& model) {
  std::vector<VotingModel::GroupSummary> groups = model.group_summaries();
  std::sort(groups.begin(), groups.end(),
            [](const auto& a, const auto& b) { return a.codes < b.codes; });
  return groups;
}

/// Full structural + behavioral equality: maintained state, learned models
/// and the recommendations they produce. Doubles compare with EXPECT_EQ —
/// the bit-identical claim, not an epsilon.
void expect_engines_equal(const AuricEngine& a, const AuricEngine& b) {
  const auto& catalog = a.catalog();
  // The label stores the local vote reads: every cell, both kinds.
  EXPECT_EQ(a.singular_labels(), b.singular_labels());
  EXPECT_EQ(a.pair_label_rows(), b.pair_label_rows());
  for (config::ParamId param = 0; param < static_cast<config::ParamId>(catalog.size());
       ++param) {
    SCOPED_TRACE("param " + std::to_string(param));
    // The engine keeps no view rows: the dictionary decodes the matrices.
    EXPECT_EQ(a.view(param).rows(), 0u);
    EXPECT_EQ(b.view(param).rows(), 0u);
    EXPECT_EQ(a.view(param).labels.values, b.view(param).labels.values);

    const ContingencyState& ca = a.contingency(param);
    const ContingencyState& cb = b.contingency(param);
    EXPECT_EQ(ca.refs, cb.refs);
    ASSERT_EQ(ca.tables.size(), cb.tables.size());
    for (std::size_t t = 0; t < ca.tables.size(); ++t) {
      EXPECT_EQ(ca.tables[t].counts, cb.tables[t].counts);
      EXPECT_EQ(ca.tables[t].total, cb.tables[t].total);
    }

    const DependencyModel& da = a.dependencies(param);
    const DependencyModel& db = b.dependencies(param);
    EXPECT_EQ(da.dependent, db.dependent);
    ASSERT_EQ(da.tests.size(), db.tests.size());
    for (std::size_t t = 0; t < da.tests.size(); ++t) {
      EXPECT_EQ(da.tests[t].ref, db.tests[t].ref);
      EXPECT_EQ(da.tests[t].result.statistic, db.tests[t].result.statistic);
      EXPECT_EQ(da.tests[t].result.df, db.tests[t].result.df);
      EXPECT_EQ(da.tests[t].result.p_value, db.tests[t].result.p_value);
    }

    const BackoffVoting& ba = a.voting(param);
    const BackoffVoting& bb = b.voting(param);
    ASSERT_EQ(ba.level_count(), bb.level_count());
    for (int level = 0; level < ba.level_count(); ++level) {
      SCOPED_TRACE("level " + std::to_string(level));
      const auto ga = sorted_groups(ba.model_at(level));
      const auto gb = sorted_groups(bb.model_at(level));
      ASSERT_EQ(ga.size(), gb.size());
      for (std::size_t g = 0; g < ga.size(); ++g) {
        EXPECT_EQ(ga[g].codes, gb[g].codes);
        EXPECT_EQ(ga[g].winner, gb[g].winner);
        EXPECT_EQ(ga[g].winner_count, gb[g].winner_count);
        EXPECT_EQ(ga[g].total, gb[g].total);
      }
    }
  }

  // The observable surface: every singular slot and every edge.
  const netsim::Topology& topo = a.topology();
  const auto expect_same = [](const Recommendation& ra, const Recommendation& rb) {
    EXPECT_EQ(ra.value, rb.value);
    EXPECT_EQ(ra.source, rb.source);
    EXPECT_EQ(ra.votes, rb.votes);
    EXPECT_EQ(ra.group_size, rb.group_size);
    EXPECT_EQ(ra.support, rb.support);
    EXPECT_EQ(ra.margin, rb.margin);
  };
  for (config::ParamId param : catalog.singular_ids()) {
    for (const netsim::Carrier& c : topo.carriers) {
      expect_same(a.recommend(param, c.id), b.recommend(param, c.id));
    }
  }
  for (config::ParamId param : catalog.pairwise_ids()) {
    for (const netsim::X2Edge& edge : topo.edges) {
      expect_same(a.recommend(param, edge.from, edge.to),
                  b.recommend(param, edge.from, edge.to));
    }
  }
}

TEST(IncrementalRelearn, AddUpdateEraseMatchesFromScratchRebuild) {
  Fixture f;
  // Two configured intra-frequency edges: one is unset before the engine
  // learns (the add case), the other erased afterwards.
  std::vector<std::size_t> configured_edges;
  for (std::size_t e = 0; e < f.topo.edge_count(); ++e) {
    if (f.assignment.pairwise[0].value[e] != config::kUnset) configured_edges.push_back(e);
  }
  ASSERT_GE(configured_edges.size(), 2u);
  const std::size_t edge_add = configured_edges[0];
  const std::size_t edge_erase = configured_edges[1];

  // Leave a few slots unset so the relearn can exercise the add path.
  test::set_value(f.assignment.singular[0], 2, config::kUnset);
  test::set_value(f.assignment.pairwise[0], edge_add, config::kUnset);
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());

  config::ConfigAssignment next = f.assignment;
  test::set_value(next.singular[0], 2, 7);                        // add
  test::set_value(next.singular[0], 4, 7);  // update (3 -> 7: existing label)
  test::set_value(next.singular[0], 6, config::kUnset);           // erase
  test::set_value(next.pairwise[0], edge_add, 2);                 // add
  test::set_value(next.pairwise[0], edge_erase, config::kUnset);  // erase

  IncrementalRelearnStats stats;
  engine.incremental_relearn(next, {}, &stats);
  EXPECT_EQ(stats.params_touched, 2u);
  EXPECT_EQ(stats.rows_added, 2u);
  EXPECT_EQ(stats.rows_erased, 2u);
  EXPECT_EQ(stats.rows_updated, 1u);
  // Exact mode re-tests every touched parameter.
  EXPECT_EQ(stats.params_retested, 2u);

  const AuricEngine fresh(f.topo, f.schema, f.catalog, next, f.options());
  expect_engines_equal(engine, fresh);
}

TEST(IncrementalRelearn, NewValueSplicesJustThatParameterAlphabet) {
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());

  // Value 9 never appears in tiny_assignment: the label alphabet of the
  // singular parameter grows, which must splice the label dimension in place
  // (label codes are value-sorted, so a new value recodes existing rows) and
  // force the dependency re-test — but never the O(rows x attrs) re-tally.
  config::ConfigAssignment next = f.assignment;
  test::set_value(next.singular[0], 0, 9);

  IncrementalRelearnStats stats;
  engine.incremental_relearn(next, {}, &stats);
  EXPECT_EQ(stats.params_touched, 1u);
  EXPECT_EQ(stats.params_remapped, 1u);
  EXPECT_EQ(stats.params_retested, 1u);

  expect_engines_equal(engine, AuricEngine(f.topo, f.schema, f.catalog, next, f.options()));

  // And shrinking the alphabet back splices too (the vanished value's label
  // column is dropped).
  config::ConfigAssignment back = f.assignment;
  IncrementalRelearnStats undo;
  engine.incremental_relearn(back, {}, &undo);
  EXPECT_EQ(undo.params_remapped, 1u);
  expect_engines_equal(engine, AuricEngine(f.topo, f.schema, f.catalog, back, f.options()));
}

TEST(IncrementalRelearn, PairwiseSpliceRecodesTheLabelColumn) {
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());
  std::vector<std::size_t> configured;
  for (std::size_t e = 0; e < f.topo.edge_count(); ++e) {
    if (f.assignment.pairwise[0].value[e] != config::kUnset) configured.push_back(e);
  }
  ASSERT_GE(configured.size(), 2u);
  const config::ParamId param = f.catalog.pairwise_ids()[0];

  // Day 1: values 1 and 4 appear (1 sorts below the resident 2, so every
  // existing code of the column shifts up) while one edge is erased.
  config::ConfigAssignment day1 = f.assignment;
  test::set_value(day1.pairwise[0], configured[0], 1);
  test::set_value(day1.pairwise[0], configured[1], 4);
  test::set_value(day1.pairwise[0], configured.back(), config::kUnset);
  IncrementalRelearnStats stats;
  engine.incremental_relearn(day1, {}, &stats);
  EXPECT_EQ(stats.params_remapped, 1u);
  expect_engines_equal(engine, AuricEngine(f.topo, f.schema, f.catalog, day1, f.options()));
  const LabelColumn labels = engine.label_column(param);
  EXPECT_EQ(labels.label(configured[0]), 0);  // value 1
  EXPECT_EQ(labels.label(configured.back()), -1);

  // Day 2: value 1 vanishes again (codes shift back down) and the erased
  // edge returns.
  config::ConfigAssignment day2 = day1;
  test::set_value(day2.pairwise[0], configured[0], 2);
  test::set_value(day2.pairwise[0], configured.back(), 2);
  IncrementalRelearnStats undo;
  engine.incremental_relearn(day2, {}, &undo);
  EXPECT_EQ(undo.params_remapped, 1u);
  expect_engines_equal(engine, AuricEngine(f.topo, f.schema, f.catalog, day2, f.options()));
  EXPECT_EQ(engine.label_column(param).label(configured[0]), 0);  // value 2 now codes 0
}

TEST(IncrementalRelearn, RandomPairwiseEditsRebuildTheRowsAFreshLearnBuilds) {
  // A generated world under the standard catalog: rounds of random edits to
  // every pair-wise column (updates, erases, new slots, first-seen values).
  // After each relearn the engine, its pair-wise rows included, equals a
  // fresh learn, and every edge's cell decodes to the edited value.
  const netsim::Topology topo = test::small_generated_topology(5, 2, 4);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::ConfigAssignment state = config::GroundTruthModel(topo, schema, catalog).assign();
  AuricEngine engine(topo, schema, catalog, state);
  std::mt19937 rng(77);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    for (std::size_t pi = 0; pi < state.pairwise.size(); ++pi) {
      const config::ParamDef& def = catalog.at(catalog.pairwise_ids()[pi]);
      for (int edit = 0; edit < 25; ++edit) {
        const std::size_t e = rng() % topo.edge_count();
        const config::ValueIndex v =
            rng() % 5 == 0 ? config::kUnset
                           : static_cast<config::ValueIndex>(
                                 rng() % static_cast<std::uint32_t>(def.domain.size()));
        test::set_value(state.pairwise[pi], e, v);
      }
    }
    engine.incremental_relearn(state);
    const AuricEngine fresh(topo, schema, catalog, state);
    expect_engines_equal(engine, fresh);
    for (std::size_t pi = 0; pi < state.pairwise.size(); ++pi) {
      const config::ParamId param = catalog.pairwise_ids()[pi];
      const config::ParamColumn& col = state.pairwise[pi];
      const LabelColumn labels = engine.label_column(param);
      for (std::size_t e = 0; e < topo.edge_count(); ++e) {
        const std::size_t i = col.find(e);
        const ml::ClassLabel label = labels.label(e);
        ASSERT_EQ(label >= 0, i != config::ParamColumn::npos) << "param " << param << " edge " << e;
        if (label >= 0) {
          ASSERT_EQ(engine.view(param).labels.values[static_cast<std::size_t>(label)],
                    col.value_at(i));
        }
      }
    }
  }
}

TEST(IncrementalRelearn, DependentSetChangeRebuildsTheVotingTables) {
  // Values that followed the band now follow the market: the re-test swaps
  // the dependent set, so the voting tables rebuild from a transient view of
  // the new assignment (the engine keeps no rows of its own).
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());
  config::ConfigAssignment next = f.assignment;
  for (const netsim::Carrier& c : f.topo.carriers) {
    test::set_value(next.singular[0], static_cast<std::size_t>(c.id), c.market == 0 ? 3 : 7);
  }
  IncrementalRelearnStats stats;
  engine.incremental_relearn(next, {}, &stats);
  EXPECT_EQ(stats.params_touched, 1u);
  EXPECT_EQ(stats.params_remapped, 0u);
  EXPECT_EQ(stats.params_rebuilt, 1u);
  expect_engines_equal(engine, AuricEngine(f.topo, f.schema, f.catalog, next, f.options()));
}

TEST(IncrementalRelearn, RepeatedDeltasStayExactOverManyRounds) {
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());
  config::ConfigAssignment state = f.assignment;
  // A deterministic little walk: flip slots between the two observed values,
  // occasionally unsetting and restoring, so maintained rows churn heavily.
  for (int round = 0; round < 6; ++round) {
    config::ParamColumn& col = state.singular[0];
    const std::size_t n = col.entities();
    for (std::size_t c = round % 3; c < n; c += 3) {
      const config::ValueIndex v = std::as_const(col).value[c];
      test::set_value(col, c, (round % 2 == 0) ? (v == 3 ? 7 : 3) : (v == config::kUnset ? 3 : v));
    }
    test::set_value(state.singular[0], (round * 2) % n, config::kUnset);
    engine.incremental_relearn(state);
    expect_engines_equal(engine,
                         AuricEngine(f.topo, f.schema, f.catalog, state, f.options()));
  }
}

TEST(IncrementalRelearn, DriftThresholdGatesTheRetest) {
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());

  // One slot out of 16 changes: far below a 0.5 threshold, so the dependency
  // scan must NOT re-run; the vote tables still absorb the delta.
  config::ConfigAssignment next = f.assignment;
  test::set_value(next.singular[0], 0, 7);
  IncrementalRelearnOptions gated;
  gated.drift_threshold = 0.5;
  IncrementalRelearnStats stats;
  engine.incremental_relearn(next, gated, &stats);
  EXPECT_EQ(stats.params_touched, 1u);
  EXPECT_EQ(stats.params_retested, 0u);
  EXPECT_EQ(engine.view(0).labels.values[static_cast<std::size_t>(
                engine.label_column(0).label(0))],
            7);

  // A shifted distribution — most slots change — crosses the threshold and
  // re-tests.
  config::ConfigAssignment shifted = next;
  swap_values(shifted.singular[0]);
  IncrementalRelearnStats shift_stats;
  engine.incremental_relearn(shifted, gated, &shift_stats);
  EXPECT_EQ(shift_stats.params_touched, 1u);
  EXPECT_EQ(shift_stats.params_retested, 1u);
}

TEST(IncrementalRelearn, ModelWatchDriftUnionTriggersTheRetest) {
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());

  // Two watch days with opposite recommended-value distributions for the
  // singular parameter: its day-over-day chi-square p collapses.
  ModelWatch watch(f.catalog);
  Recommendation rec;
  rec.param = 0;
  rec.source = RecommendationSource::kGlobalVote;
  rec.group_size = 4;
  rec.votes = 4;
  rec.support = 1.0;
  for (int i = 0; i < 200; ++i) {
    rec.value = 3;
    watch.record(rec);
  }
  watch.roll_day();
  for (int i = 0; i < 200; ++i) {
    rec.value = 7;
    watch.record(rec);
  }
  watch.roll_day();
  ASSERT_LT(watch.drift_p(0), 0.01);

  // The same tiny inventory delta as above: below the fraction threshold, but
  // the watch union trigger forces the re-test anyway.
  config::ConfigAssignment next = f.assignment;
  test::set_value(next.singular[0], 0, 7);
  IncrementalRelearnOptions gated;
  gated.drift_threshold = 0.5;
  gated.watch = &watch;
  IncrementalRelearnStats stats;
  engine.incremental_relearn(next, gated, &stats);
  EXPECT_EQ(stats.params_touched, 1u);
  EXPECT_EQ(stats.params_retested, 1u);
}

TEST(IncrementalRelearn, ParallelLearnAndRelearnAreByteIdentical) {
  Fixture f;
  AuricOptions serial = f.options();
  AuricOptions wide = f.options();
  wide.learn_threads = 4;
  AuricEngine engine1(f.topo, f.schema, f.catalog, f.assignment, serial);
  AuricEngine engine4(f.topo, f.schema, f.catalog, f.assignment, wide);
  expect_engines_equal(engine1, engine4);

  config::ConfigAssignment next = f.assignment;
  test::set_value(next.singular[0], 0, 7);
  test::set_value(next.singular[0], 5, config::kUnset);
  test::set_value(next.pairwise[0], 0, 4);

  IncrementalRelearnOptions inc1;
  inc1.threads = 1;
  IncrementalRelearnOptions inc4;
  inc4.threads = 4;
  IncrementalRelearnStats s1;
  IncrementalRelearnStats s4;
  engine1.incremental_relearn(next, inc1, &s1);
  engine4.incremental_relearn(next, inc4, &s4);
  EXPECT_EQ(s1.params_touched, s4.params_touched);
  EXPECT_EQ(s1.params_retested, s4.params_retested);
  EXPECT_EQ(s1.rows_updated, s4.rows_updated);
  expect_engines_equal(engine1, engine4);
  expect_engines_equal(engine1, AuricEngine(f.topo, f.schema, f.catalog, next, serial));
}

TEST(IncrementalRelearn, ClonedEngineRelearnsIndependently) {
  Fixture f;
  auto original = std::make_unique<AuricEngine>(f.topo, f.schema, f.catalog, f.assignment,
                                                f.options());
  AuricEngine clone(*original);

  config::ConfigAssignment next = f.assignment;
  swap_values(next.singular[0]);
  clone.incremental_relearn(next);
  // The serve relearn path frees the original after the RCU flip; the clone's
  // models must survive it (they share only the immutable attribute codes).
  original.reset();
  expect_engines_equal(clone, AuricEngine(f.topo, f.schema, f.catalog, next, f.options()));
}

TEST(IncrementalRelearn, RejectsAMismatchedAssignment) {
  Fixture f;
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, f.options());
  config::ConfigAssignment wrong = f.assignment;
  wrong.singular[0] = config::ParamColumn(f.topo.carrier_count() - 1);
  EXPECT_THROW(engine.incremental_relearn(wrong), std::invalid_argument);
  config::ConfigAssignment extra = f.assignment;
  extra.singular.emplace_back();
  EXPECT_THROW(engine.incremental_relearn(extra), std::invalid_argument);
}

TEST(IncrementalRelearn, RefusesAMarketScopedEngine) {
  // A scoped engine's label matrices hold one market's cells; the diff
  // against them would read every other market's configured slot as an add.
  Fixture f;
  AuricOptions options = f.options();
  options.market = netsim::MarketId{0};
  AuricEngine engine(f.topo, f.schema, f.catalog, f.assignment, options);
  const LabelMatrix before = engine.singular_labels();
  EXPECT_THROW(engine.incremental_relearn(f.assignment), std::invalid_argument);
  EXPECT_EQ(engine.singular_labels(), before);  // refused before touching anything
}

}  // namespace
}  // namespace auric::core
