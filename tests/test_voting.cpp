#include "core/voting.h"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_helpers.h"

namespace auric::core {
namespace {

// chain_topology(5, 3): 16 carriers; even ids are 700 MHz, odd are 1900 MHz;
// ids 10..15 belong to market 1. tiny_assignment labels by band: 3 on low
// band, 7 on mid band.
struct Fixture {
  netsim::Topology topo = test::chain_topology();
  config::ParamCatalog catalog = test::tiny_catalog();
  config::ConfigAssignment assignment = test::tiny_assignment(topo);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  std::vector<std::vector<netsim::AttrCode>> codes = schema.encode_all(topo);
  AttrWords words{schema, codes};
  ParamView view = build_param_view(topo, catalog, assignment, 0);
  std::vector<AttrRef> deps{{false, schema.index_of("carrier_frequency")}};
  LabelMatrix matrix;

  void rebuild_view() { view = build_param_view(topo, catalog, assignment, 0); }

  /// The singular view's labels as a one-column carrier matrix.
  LabelColumn labels() {
    matrix = LabelMatrix(topo.carrier_count(), 1);
    matrix.assign_column(0, view, "toySingular");
    return matrix.column(0);
  }

  /// The pair-wise column's labels as one-column pair-wise rows, coded
  /// through `pairs`' dictionary.
  PairLabelRows pair_rows(const ParamView& pairs) const {
    const std::vector<const ml::LabelDictionary*> dictionaries{&pairs.labels};
    return PairLabelRows(topo, assignment.pairwise, dictionaries);
  }
};

TEST(AttrWords, RoundTripsEveryCodeAndTheUnseenSentinel) {
  Fixture f;
  for (std::size_t a = 0; a < f.codes.size(); ++a) {
    for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
      EXPECT_EQ(f.words.code(f.words.word(static_cast<netsim::CarrierId>(c)), a), f.codes[a][c]);
    }
  }
  // A planned carrier with a frequency the inventory never saw: the field
  // packs to all ones, decodes to kUnseen and matches no real carrier.
  netsim::Carrier alien = f.topo.carriers[0];
  alien.frequency_mhz = 2600;
  const std::size_t freq = f.schema.index_of("carrier_frequency");
  const std::uint64_t word = f.words.pack(f.schema.encode(alien));
  EXPECT_EQ(f.words.code(word, freq), netsim::AttributeSchema::kUnseen);
  const KeyMask mask = f.words.mask(f.deps);
  for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
    EXPECT_NE(word & mask.carrier, f.words.word(static_cast<netsim::CarrierId>(c)) & mask.carrier);
  }
}

TEST(VotingModel, GroupsByDependentAttribute) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.words);
  EXPECT_EQ(model.group_count(), 2u);  // 700 MHz and 1900 MHz groups
}

TEST(VotingModel, UnanimousGroupVotes) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  const auto vote = model.vote(key, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(vote->label)], 3);
  EXPECT_EQ(vote->group_size, 8);
  EXPECT_DOUBLE_EQ(vote->support(), 1.0);
}

TEST(VotingModel, UnknownKeyAbstains) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.words);
  GroupKey alien{42};
  EXPECT_FALSE(model.vote(alien, 0.5).has_value());
}

TEST(VotingModel, ThresholdGatesTheWinner) {
  Fixture f;
  for (netsim::CarrierId c : {0, 2, 4}) {
    test::set_value(f.assignment.singular[0], static_cast<std::size_t>(c), 9);
  }
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  const auto loose = model.vote(key, 0.60);  // 5/8 = 62.5%
  ASSERT_TRUE(loose.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(loose->label)], 3);
  EXPECT_FALSE(model.vote(key, 0.75).has_value());
}

TEST(VotingModel, MarginSeparatesUnanimousFromContestedWins) {
  Fixture f;
  const VotingModel unanimous_model(f.view, f.deps, f.words);
  const GroupKey key = unanimous_model.key_for(0, netsim::kInvalidCarrier);
  const auto unanimous = unanimous_model.vote(key, 0.75);
  ASSERT_TRUE(unanimous.has_value());
  EXPECT_EQ(unanimous->runner_up, 0);
  EXPECT_DOUBLE_EQ(unanimous->margin(), 1.0);

  // 5-vs-3 in the 700 MHz group: support 62.5%, margin (5-3)/8 = 25%.
  for (netsim::CarrierId c : {0, 2, 4}) {
    test::set_value(f.assignment.singular[0], static_cast<std::size_t>(c), 9);
  }
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.words);
  const auto contested = model.vote(model.key_for(0, netsim::kInvalidCarrier), 0.60);
  ASSERT_TRUE(contested.has_value());
  EXPECT_EQ(contested->count, 5);
  EXPECT_EQ(contested->runner_up, 3);
  EXPECT_DOUBLE_EQ(contested->margin(), 0.25);
  EXPECT_GT(contested->support(), contested->margin());
}

TEST(LocalVote, MarginReflectsTheRunnerUp) {
  Fixture f;
  test::set_value(f.assignment.singular[0], 2, 9);  // one deviant among the candidates
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  const std::vector<netsim::CarrierId> candidates{0, 2, 4};
  const auto vote = local_vote(f.labels(), f.words, model.mask(), key, candidates, -1, 0.60);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->count, 2);
  EXPECT_EQ(vote->runner_up, 1);
  EXPECT_NEAR(vote->margin(), 1.0 / 3.0, 1e-9);

  // Weighted: the deviant's weight shrinks, and so does the runner-up count
  // after the weighted tally is re-expressed in voter units.
  std::vector<double> weights(f.topo.carrier_count(), 1.0);
  weights[2] = 0.1;
  const auto weighted =
      local_vote(f.labels(), f.words, model.mask(), key, candidates, -1, 0.60, weights);
  ASSERT_TRUE(weighted.has_value());
  EXPECT_LE(weighted->runner_up, vote->runner_up);
  EXPECT_GE(weighted->margin(), vote->margin());
}

TEST(VotingModel, LeaveOneOutExcludesOwnObservation) {
  Fixture f;
  test::set_value(f.assignment.singular[0], 4, 9);  // lone deviant in the 700 group
  f.rebuild_view();
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(4, netsim::kInvalidCarrier);
  const ml::ClassLabel own = f.view.labels.code_of(9);
  const auto vote = model.vote_excluding(key, own, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(vote->label)], 3);
  EXPECT_EQ(vote->group_size, 7);
  EXPECT_DOUBLE_EQ(vote->support(), 1.0);
}

TEST(LocalVote, RestrictsToCandidates) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  const std::vector<netsim::CarrierId> candidates{2};
  const auto vote = local_vote(f.labels(), f.words, model.mask(), key, candidates, -1, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->group_size, 1);
  const std::vector<netsim::CarrierId> wrong{1};  // 1900 MHz: no matching rows
  EXPECT_FALSE(local_vote(f.labels(), f.words, model.mask(), key, wrong, -1, 0.75).has_value());
}

TEST(LocalVote, ExcludeEntitySkipsSelf) {
  Fixture f;
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  const std::int64_t self = 0;  // carrier 0's own singular entity
  const std::vector<netsim::CarrierId> candidates{0, 2};
  const auto vote = local_vote(f.labels(), f.words, model.mask(), key, candidates, self, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->group_size, 1);  // only carrier 2 remains
}

TEST(LocalVote, PairwiseColumnFiltersByNeighborAndSkipsTheOwnEdge) {
  // A pair-wise column: a candidate votes once per configured edge whose
  // neighbor matches the neighbor-side key, and the excluded edge never
  // votes even when its subject is among the candidates. Every attribute
  // takes a turn as the neighbor-side dependent.
  Fixture f;
  const ParamView pairs = build_param_view(f.topo, f.catalog, f.assignment, 1);
  const PairLabelRows edges = f.pair_rows(pairs);
  std::int32_t voters = 0;
  std::int32_t filtered = 0;  // candidate edges a neighbor-side key turned away
  for (std::size_t attr = 0; attr < f.codes.size(); ++attr) {
    const std::vector<AttrRef> deps{{true, attr}};
    const VotingModel model(pairs, deps, f.words);
    for (std::size_t r = 0; r < pairs.rows(); ++r) {
      const netsim::CarrierId c = pairs.carrier[r];
      std::vector<netsim::CarrierId> candidates = f.topo.neighborhood_hops(c, 2);
      candidates.insert(candidates.begin(), c);
      const auto own = static_cast<std::size_t>(pairs.neighbor[r]);
      std::int32_t expected = 0;
      for (std::size_t q = 0; q < pairs.rows(); ++q) {
        if (q == r || std::find(candidates.begin(), candidates.end(), pairs.carrier[q]) ==
                          candidates.end()) {
          continue;
        }
        const auto n = static_cast<std::size_t>(pairs.neighbor[q]);
        if (f.codes[attr][n] == f.codes[attr][own]) {
          ++expected;
        } else {
          ++filtered;
        }
      }
      const auto vote = local_vote(edges.column(0), f.words, model.mask(),
                                   model.key_for(c, pairs.neighbor[r]), candidates,
                                   static_cast<std::int64_t>(pairs.entity[r]), 0.0);
      EXPECT_EQ(vote ? vote->group_size : 0, expected) << "attr " << attr << " row " << r;
      voters += expected;
    }
  }
  EXPECT_GT(voters, 0);
  EXPECT_GT(filtered, 0);
}

TEST(LocalVote, CarrierWeightsShiftTheWinner) {
  Fixture f;
  test::set_value(f.assignment.singular[0], 2, 9);
  f.rebuild_view();
  const std::vector<netsim::CarrierId> candidates{0, 2, 4};
  const VotingModel model(f.view, f.deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  // Unweighted: 2-vs-1 -> 66% < 75% -> abstain.
  EXPECT_FALSE(
      local_vote(f.labels(), f.words, model.mask(), key, candidates, -1, 0.75).has_value());
  // The deviating carrier's vote weighted down (poor KPI history): 3 wins.
  std::vector<double> weights(f.topo.carrier_count(), 1.0);
  weights[2] = 0.1;
  const auto vote =
      local_vote(f.labels(), f.words, model.mask(), key, candidates, -1, 0.75, weights);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(vote->label)], 3);
}

TEST(BackoffVoting, FallsBackWhenQuorumFailsAtFullMatch) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  // Carrier 10 (market 1, 700 MHz): the (freq, market) group has 3 members;
  // leave-one-out shrinks it under the quorum of 3, so level 1 (frequency
  // only) decides.
  const BackoffVoting backoff(f.view, deps, f.words, /*levels=*/2, /*min_voters=*/3);
  const auto decision =
      backoff.vote_excluding(10, netsim::kInvalidCarrier, f.labels().label(10), 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 1);
  EXPECT_EQ(f.view.labels.values[static_cast<std::size_t>(decision->vote.label)], 3);
  EXPECT_EQ(decision->vote.group_size, 7);
}

TEST(BackoffVoting, QuorumSendsThinGroupsToCoarserLevels) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  const BackoffVoting backoff(f.view, deps, f.words, 2, /*min_voters=*/4);
  const auto decision = backoff.vote(10, netsim::kInvalidCarrier, 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 1);
  EXPECT_EQ(decision->vote.group_size, 8);
}

TEST(BackoffVoting, NeighborSideKeyWithoutANeighborThrows) {
  Fixture f;
  const ParamView pairs = build_param_view(f.topo, f.catalog, f.assignment, 1);
  const std::vector<AttrRef> deps{{true, f.schema.index_of("carrier_frequency")}};
  const BackoffVoting backoff(pairs, deps, f.words, 1);
  const PairLabelRows edges = f.pair_rows(pairs);
  const LabelColumn labels = edges.column(0);
  // Both ladders go through the one key builder; neither may read the
  // attribute column at kInvalidCarrier.
  EXPECT_THROW(
      backoff.local(labels, f.topo.neighborhood(0), 0, netsim::kInvalidCarrier, -1, 0.75),
      std::logic_error);
  EXPECT_THROW(backoff.local(pairs, f.topo.neighborhood(0), 0, netsim::kInvalidCarrier, -1, 0.75),
               std::logic_error);
  EXPECT_THROW(backoff.vote(0, netsim::kInvalidCarrier, 0.75), std::logic_error);
  const auto decision = backoff.local(labels, f.topo.neighborhood(0), 0, 2, -1, 0.75);
  EXPECT_FALSE(decision.has_value());  // carrier 0's two relations are under the quorum
}

TEST(BackoffVoting, ViewAndColumnLocalVotesAgree) {
  // The view overload finds rows by binary search, the column overload
  // reads matrix cells: the same decision for every subject, on both a
  // singular and a pair-wise view (neighbor-side key), with and without
  // weights and with each subject's own slot excluded.
  Fixture f;
  test::set_value(f.assignment.singular[0], 2, 9);
  test::set_value(f.assignment.singular[0], 5, config::kUnset);
  f.rebuild_view();
  std::vector<double> weights(f.topo.carrier_count(), 1.0);
  weights[3] = 0.25;
  weights[6] = 2.0;
  const ParamView pairs = build_param_view(f.topo, f.catalog, f.assignment, 1);
  const PairLabelRows edges = f.pair_rows(pairs);
  const std::vector<AttrRef> pair_deps{{false, f.schema.index_of("carrier_frequency")},
                                       {true, f.schema.index_of("market")}};
  const BackoffVoting singular(f.view, f.deps, f.words, 1, /*min_voters=*/1);
  const BackoffVoting pairwise(pairs, pair_deps, f.words, 2, /*min_voters=*/1);
  const LabelColumn single_labels = f.labels();
  const LabelColumn pair_labels = edges.column(0);
  const auto same = [](const std::optional<BackoffVoting::Decision>& a,
                       const std::optional<BackoffVoting::Decision>& b) {
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a) return;
    EXPECT_EQ(a->level, b->level);
    EXPECT_EQ(a->vote.label, b->vote.label);
    EXPECT_EQ(a->vote.count, b->vote.count);
    EXPECT_EQ(a->vote.runner_up, b->vote.runner_up);
    EXPECT_EQ(a->vote.group_size, b->vote.group_size);
  };
  for (const std::span<const double> w :
       {std::span<const double>{}, std::span<const double>(weights)}) {
    for (std::size_t r = 0; r < f.view.rows(); ++r) {
      const netsim::CarrierId c = f.view.carrier[r];
      const auto hood = f.topo.neighborhood_hops(c, 2);
      same(singular.local(f.view, hood, c, netsim::kInvalidCarrier, static_cast<std::int64_t>(r),
                          0.5, w),
           singular.local(single_labels, hood, c, netsim::kInvalidCarrier,
                          static_cast<std::int64_t>(f.view.entity[r]), 0.5, w));
    }
    for (std::size_t r = 0; r < pairs.rows(); ++r) {
      const netsim::CarrierId c = pairs.carrier[r];
      const auto hood = f.topo.neighborhood_hops(c, 2);
      same(pairwise.local(pairs, hood, c, pairs.neighbor[r], static_cast<std::int64_t>(r), 0.5, w),
           pairwise.local(pair_labels, hood, c, pairs.neighbor[r],
                          static_cast<std::int64_t>(pairs.entity[r]), 0.5, w));
    }
  }
}

/// A singular view of `rows` observations, all on `carrier`, where the first
/// `first` rows carry label 0 and the rest label 1.
ParamView one_carrier_view(netsim::CarrierId carrier, std::size_t rows, std::size_t first) {
  ParamView view;
  view.labels.values = {3, 7};
  for (std::size_t r = 0; r < rows; ++r) {
    view.carrier.push_back(carrier);
    view.neighbor.push_back(netsim::kInvalidCarrier);
    view.entity.push_back(static_cast<std::size_t>(carrier));
    view.value.push_back(r < first ? 3 : 7);
    view.label.push_back(r < first ? 0 : 1);
  }
  return view;
}

TEST(VotingModel, GroupLargerThanASixteenBitCountVotesExactly) {
  // A slot codes its run length in 16 bits, but a group's voter total is
  // the sum of its counts: 70,000 observations must vote exactly, at the
  // full level and at the level aggregated from it.
  Fixture f;
  const ParamView view = one_carrier_view(0, 70000, 50000);
  const std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                                  {false, f.schema.index_of("market")}};
  const BackoffVoting backoff(view, deps, f.words, 2, 1);
  for (int level = 0; level < 2; ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const VotingModel& model = backoff.model_at(level);
    ASSERT_EQ(model.group_count(), 1u);
    const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
    const auto vote = model.vote(key, 0.7);
    ASSERT_TRUE(vote.has_value());
    EXPECT_EQ(vote->label, 0);
    EXPECT_EQ(vote->count, 50000);
    EXPECT_EQ(vote->runner_up, 20000);
    EXPECT_EQ(vote->group_size, 70000);
    const auto loo = model.vote_excluding(key, 1, 0.7);
    ASSERT_TRUE(loo.has_value());
    EXPECT_EQ(loo->runner_up, 19999);
    EXPECT_EQ(loo->group_size, 69999);
    const auto summaries = model.group_summaries();
    ASSERT_EQ(summaries.size(), 1u);
    EXPECT_EQ(summaries[0].total, 70000);
    EXPECT_EQ(summaries[0].winner, 0);
    EXPECT_EQ(summaries[0].winner_count, 50000);
  }
  // 50,000 : 20,000 is 71.4%; 2,000 more runner-up votes drop it below 70%.
  VotingModel model(view, deps, f.words);
  const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
  for (int i = 0; i < 2000; ++i) model.adjust(key, 1, 1);
  EXPECT_FALSE(model.vote(key, 0.7).has_value());
  const auto vote = model.vote(key, 0.5);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->group_size, 72000);
}

TEST(VotingModel, AdjustDrainingAGroupErasesItsSlotAndAReAddRecreatesIt) {
  Fixture f;
  VotingModel model(f.view, f.deps, f.words);
  const GroupKey low = model.key_for(0, netsim::kInvalidCarrier);   // 8 voters, label 0
  const GroupKey mid = model.key_for(1, netsim::kInvalidCarrier);   // 8 voters, label 1
  for (int i = 0; i < 7; ++i) model.adjust(low, 0, -1);
  EXPECT_EQ(model.group_count(), 2u);
  EXPECT_EQ(model.vote(low, 0.75)->group_size, 1);
  model.adjust(low, 0, -1);  // the last voter leaves
  EXPECT_EQ(model.group_count(), 1u);
  EXPECT_FALSE(model.vote(low, 0.0).has_value());
  EXPECT_THROW(model.adjust(low, 0, -1), std::logic_error);
  // The neighbouring group survives the erase untouched.
  EXPECT_EQ(model.vote(mid, 0.75)->group_size, 8);

  model.adjust(low, 5, 1);
  EXPECT_EQ(model.group_count(), 2u);
  const auto vote = model.vote(low, 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->label, 5);
  EXPECT_EQ(vote->group_size, 1);
}

TEST(VotingModel, RunsGrowPastTheirCapacityThroughRelocationAndCompaction) {
  // Two groups take turns gaining a new label: every append finds the run
  // full and away from the tail, so it relocates; the dead space left
  // behind trips compaction. The result must equal a fresh build of the
  // same population.
  Fixture f;
  VotingModel model(f.view, f.deps, f.words);
  const GroupKey low = model.key_for(0, netsim::kInvalidCarrier);
  const GroupKey mid = model.key_for(1, netsim::kInvalidCarrier);
  // The population the adjusted model must hold: the view's rows plus every
  // (carrier, label) voter added below, less the one removed.
  std::vector<std::pair<netsim::CarrierId, ml::ClassLabel>> voters;
  for (ml::ClassLabel label = 2; label < 300; ++label) {
    model.adjust(low, label, 1);
    voters.emplace_back(0, label);
    model.adjust(mid, label, 1);
    voters.emplace_back(1, label);
  }
  for (int i = 0; i < 20; ++i) {
    model.adjust(low, 150, 1);  // grows an existing pair in place
    voters.emplace_back(0, 150);
  }
  model.adjust(mid, 299, -1);  // drops the run's last pair
  voters.erase(std::find(voters.begin(), voters.end(),
                         std::pair<netsim::CarrierId, ml::ClassLabel>(1, 299)));
  ParamView expected = f.view;
  for (const auto& [carrier, label] : voters) {
    expected.carrier.push_back(carrier);
    expected.neighbor.push_back(netsim::kInvalidCarrier);
    expected.entity.push_back(static_cast<std::size_t>(carrier));
    expected.value.push_back(0);
    expected.label.push_back(label);
  }
  const VotingModel fresh(expected, f.deps, f.words);

  const auto a = model.group_summaries();
  const auto b = fresh.group_summaries();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t g = 0; g < a.size(); ++g) {
    EXPECT_EQ(a[g].codes, b[g].codes);
    EXPECT_EQ(a[g].winner, b[g].winner);
    EXPECT_EQ(a[g].winner_count, b[g].winner_count);
    EXPECT_EQ(a[g].total, b[g].total);
  }
  for (const GroupKey& key : {low, mid}) {
    const auto got = model.vote(key, 0.0);
    const auto want = fresh.vote(key, 0.0);
    ASSERT_TRUE(got && want);
    EXPECT_EQ(got->label, want->label);
    EXPECT_EQ(got->count, want->count);
    EXPECT_EQ(got->runner_up, want->runner_up);
    EXPECT_EQ(got->group_size, want->group_size);
  }
  EXPECT_EQ(model.vote(low, 0.0)->label, 150);
  EXPECT_EQ(model.vote(low, 0.0)->count, 21);
}

using LabelCounts = std::map<ml::ClassLabel, std::int32_t>;

/// The vote a group holding `counts` must return at threshold 0, with one
/// observation of `excluded` removed when `exclude_one`: the most-voted
/// label (the smallest on a tie), the second-highest count and the total.
std::optional<Vote> reference_vote(const LabelCounts& counts, ml::ClassLabel excluded,
                                   bool exclude_one) {
  Vote best;
  std::vector<std::int32_t> sorted;
  for (auto [label, count] : counts) {
    if (exclude_one && label == excluded) --count;
    best.group_size += count;
    sorted.push_back(count);
    if (count > best.count) {  // labels ascend: a tie keeps the smaller one
      best.label = label;
      best.count = count;
    }
  }
  std::sort(sorted.rbegin(), sorted.rend());
  best.runner_up = sorted.size() > 1 ? sorted[1] : 0;
  if (best.group_size <= 0 || best.count <= 0) return std::nullopt;
  return best;
}

void expect_same_vote(const std::optional<Vote>& got, const std::optional<Vote>& want) {
  ASSERT_EQ(got.has_value(), want.has_value());
  if (!want) return;
  EXPECT_EQ(got->label, want->label);
  EXPECT_EQ(got->count, want->count);
  EXPECT_EQ(got->runner_up, want->runner_up);
  EXPECT_EQ(got->group_size, want->group_size);
}

/// Expects `model`'s group summaries to be `groups`, each group given by
/// its codes in deps() order.
void expect_summaries(const VotingModel& model,
                      const std::map<std::vector<netsim::AttrCode>, LabelCounts>& groups) {
  const auto summaries = model.group_summaries();
  ASSERT_EQ(summaries.size(), groups.size());
  auto want = groups.begin();
  for (const VotingModel::GroupSummary& got : summaries) {
    const auto vote = reference_vote(want->second, -1, false);
    EXPECT_EQ(got.codes, want->first);
    EXPECT_EQ(got.winner, vote->label);
    EXPECT_EQ(got.winner_count, vote->count);
    EXPECT_EQ(got.total, vote->group_size);
    ++want;
  }
}

/// `n` carriers with no X2 links whose integer-valued attributes (every
/// one but the four enums) are drawn from `values` values each, so the
/// schema spends bit_width(values) bits on each; `twin` makes carriers 2i
/// and 2i + 1 equal on all but software_version, which is their parity.
netsim::Topology synthetic_topology(std::size_t n, int values, bool twin, std::mt19937_64& rng) {
  netsim::Topology topo;
  const auto draw = [&] { return static_cast<int>(rng() % static_cast<std::uint64_t>(values)); };
  for (std::size_t i = 0; i < n; ++i) {
    netsim::Carrier c;
    c.id = static_cast<netsim::CarrierId>(i);
    if (twin && i % 2 == 1) {
      c = topo.carriers.back();
      c.id = static_cast<netsim::CarrierId>(i);
      c.software_version = 1;
    } else {
      c.frequency_mhz = draw();
      c.carrier_info = draw();
      c.bandwidth_mhz = draw();
      c.hardware = draw();
      c.cell_size_miles = draw();
      c.tracking_area_code = draw();
      c.market = draw();
      c.vendor = draw();
      c.neighbor_channel = draw();
      c.neighbors_same_enodeb = 0;
      c.software_version = twin ? 0 : draw();
    }
    topo.carriers.push_back(c);
  }
  return topo;
}

/// The integer-valued attributes synthetic_topology draws, on one side.
std::vector<AttrRef> drawn_refs(const netsim::AttributeSchema& schema, bool neighbor_side) {
  std::vector<AttrRef> refs;
  for (const char* name : {"carrier_frequency", "carrier_info", "channel_bandwidth", "hardware",
                           "cell_size", "tracking_area_code", "market", "vendor",
                           "neighbor_channel"}) {
    refs.push_back({neighbor_side, schema.index_of(name)});
  }
  return refs;
}

/// Run pairs a fresh build over `groups` holds: one per label of every
/// group of two or more labels (a one-label group keeps its vote in its
/// slot).
std::size_t run_pairs(const std::map<std::vector<netsim::AttrCode>, LabelCounts>& groups) {
  std::size_t pairs = 0;
  for (const auto& [codes, counts] : groups) pairs += counts.size() > 1 ? counts.size() : 0;
  return pairs;
}

TEST(VotingModel, RandomAdjustsMatchAMapReferenceAcrossTheWrap) {
  // Seeded walks of +1/-1 adjusts fill a table (growth by an eighth) and
  // drain it (backward-shift erases) in turn: one over 12 keys, whose
  // table of a dozen or so slots has a probe run across the last slot at
  // almost every step, and one over a few hundred keys. Labels are drawn
  // uniformly, or mostly as each key's own label so that groups keep
  // crossing between one label (the single form) and several (a run). After
  // every step each key's vote and leave-one-out vote, the group count, the
  // run pairs and the summaries must equal a std::map holding the same
  // voters.
  std::mt19937_64 rng(2021);
  const netsim::Topology topo = synthetic_topology(320, 20, false, rng);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const auto codes = schema.encode_all(topo);
  const AttrWords words(schema, codes);
  const std::vector<AttrRef> deps{{false, schema.index_of("hardware")},
                                  {false, schema.index_of("vendor")},
                                  {false, schema.index_of("market")}};
  const auto codes_of = [&](netsim::CarrierId c) {
    std::vector<netsim::AttrCode> out;
    for (const AttrRef& ref : deps) out.push_back(codes[ref.attr][static_cast<std::size_t>(c)]);
    return out;
  };
  std::map<std::vector<netsim::AttrCode>, netsim::CarrierId> subject;  // codes -> one carrier
  for (netsim::CarrierId c = 0; c < static_cast<netsim::CarrierId>(topo.carrier_count()); ++c) {
    subject.emplace(codes_of(c), c);
  }
  ASSERT_GT(subject.size(), 250u);
  std::vector<netsim::CarrierId> keys;
  for (const auto& [key_codes, c] : subject) keys.push_back(c);

  for (const bool own_mostly : {false, true})
  for (const std::size_t pool_size : {std::size_t{12}, keys.size()}) {
    SCOPED_TRACE(std::to_string(pool_size) + " keys" + (own_mostly ? ", own labels" : ""));
    const std::vector<netsim::CarrierId> pool(
        keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(pool_size));
    // The table starts from a small build over the pool's first carriers.
    ParamView view;
    for (std::size_t k = 0; k < 10; ++k) {
      view.carrier.push_back(pool[k]);
      view.neighbor.push_back(netsim::kInvalidCarrier);
      view.entity.push_back(static_cast<std::size_t>(pool[k]));
      view.value.push_back(0);
      view.label.push_back(static_cast<ml::ClassLabel>(k % 3));
    }
    VotingModel model(view, deps, words);
    EXPECT_FALSE(std::has_single_bit(model.slot_count())) << model.slot_count();
    std::map<std::vector<netsim::AttrCode>, LabelCounts> reference;
    for (std::size_t r = 0; r < view.rows(); ++r) {
      ++reference[codes_of(view.carrier[r])][view.label[r]];
    }

    std::size_t most_groups = 0;
    // Form changes the walk made: single to run, run to single, a single
    // group erased, a run that lost a pair and stayed a run.
    std::size_t to_run = 0, to_single = 0, erased = 0, run_drops = 0;
    for (int step = 0; step < 2400; ++step) {
      const bool filling = (step / 600) % 2 == 0;
      if (reference.empty() || rng() % 100 < (filling ? 85u : 15u)) {
        const netsim::CarrierId c = pool[rng() % pool.size()];
        const auto label = static_cast<ml::ClassLabel>(
            own_mostly && rng() % 8 != 0 ? c % 5 : static_cast<netsim::CarrierId>(rng() % 5));
        model.adjust(model.key_for(c, netsim::kInvalidCarrier), label, 1);
        LabelCounts& counts = reference[codes_of(c)];
        to_run += counts.size() == 1 && counts.count(label) == 0;
        ++counts[label];
      } else {
        auto group = reference.begin();
        std::advance(group, static_cast<std::ptrdiff_t>(rng() % reference.size()));
        auto pair = group->second.begin();
        std::advance(pair, static_cast<std::ptrdiff_t>(rng() % group->second.size()));
        model.adjust(model.key_for(subject.at(group->first), netsim::kInvalidCarrier),
                     pair->first, -1);
        if (--pair->second == 0) {
          group->second.erase(pair);
          to_single += group->second.size() == 1;
          run_drops += group->second.size() > 1;
        }
        if (group->second.empty()) {
          reference.erase(group);
          ++erased;
        }
      }
      most_groups = std::max(most_groups, reference.size());
      SCOPED_TRACE("step " + std::to_string(step));
      ASSERT_EQ(model.group_count(), reference.size());
      ASSERT_EQ(model.pair_count(), run_pairs(reference));
      for (const netsim::CarrierId c : pool) {
        const GroupKey key = model.key_for(c, netsim::kInvalidCarrier);
        const auto it = reference.find(codes_of(c));
        const auto own = static_cast<ml::ClassLabel>(c % 5);
        if (it == reference.end()) {
          EXPECT_FALSE(model.vote(key, 0.0).has_value());
          EXPECT_FALSE(model.vote_excluding(key, own, 0.0).has_value());
          continue;
        }
        expect_same_vote(model.vote(key, 0.0), reference_vote(it->second, -1, false));
        // Leave-one-out needs an observation of the own label to remove.
        if (it->second.count(own) != 0) {
          expect_same_vote(model.vote_excluding(key, own, 0.0),
                           reference_vote(it->second, own, true));
        }
      }
      expect_summaries(model, reference);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(most_groups, pool_size * 2 / 3);  // the walk really filled the table
    // Every form change happened, several times (the fewest, 5, is the run
    // drops of the wide own-label walk).
    for (const std::size_t changes : {to_run, to_single, erased, run_drops}) {
      EXPECT_GE(changes, 5u);
    }
  }
}

TEST(VotingModel, LabelsUpTo0xFFFEStayInTheSlotAndLargerOnesTakeARun) {
  // A one-label group keeps label + 1 in 16 bits of its slot, so 0xFFFE is
  // the largest label held there; a view whose labels pass it (no label
  // matrix caps them) falls back to a one-pair run. Both vote alike.
  Fixture f;
  constexpr ml::ClassLabel kTop = 0xFFFE;
  ParamView view;
  for (netsim::CarrierId c = 0; c < 4; ++c) {  // even: 700 MHz, odd: 1900 MHz
    view.carrier.push_back(c);
    view.neighbor.push_back(netsim::kInvalidCarrier);
    view.entity.push_back(static_cast<std::size_t>(c));
    view.value.push_back(0);
    view.label.push_back(c % 2 == 0 ? kTop : kTop + 1);
  }
  VotingModel model(view, f.deps, f.words);
  const GroupKey low = model.key_for(0, netsim::kInvalidCarrier);
  const GroupKey mid = model.key_for(1, netsim::kInvalidCarrier);
  EXPECT_EQ(model.pair_count(), 1u);  // only the 0xFFFF group holds a run
  for (const auto& [key, label] : {std::pair{low, kTop}, std::pair{mid, kTop + 1}}) {
    SCOPED_TRACE(label);
    expect_same_vote(model.vote(key, 0.75), reference_vote({{label, 2}}, -1, false));
    expect_same_vote(model.vote_excluding(key, label, 0.75),
                     reference_vote({{label, 2}}, label, true));
  }
  expect_summaries(model, {{{0}, {{kTop, 2}}}, {{1}, {{kTop + 1, 2}}}});

  // 0xFFFF joins the single group: a two-pair run. When 0xFFFE leaves, the
  // run holds one label that cannot move back into the slot.
  model.adjust(low, kTop + 1, 1);
  EXPECT_EQ(model.pair_count(), 3u);
  expect_same_vote(model.vote(low, 0.0), reference_vote({{kTop, 2}, {kTop + 1, 1}}, -1, false));
  model.adjust(low, kTop, -2);
  EXPECT_EQ(model.pair_count(), 2u);
  expect_same_vote(model.vote(low, 0.0), reference_vote({{kTop + 1, 1}}, -1, false));
  // 0xFFFE joins the run group and 0xFFFF leaves it: back in the slot.
  model.adjust(mid, kTop, 3);
  model.adjust(mid, kTop + 1, -2);
  EXPECT_EQ(model.pair_count(), 1u);
  expect_same_vote(model.vote(mid, 0.0), reference_vote({{kTop, 3}}, -1, false));
  expect_summaries(model, {{{0}, {{kTop + 1, 1}}}, {{1}, {{kTop, 3}}}});
  // The last voter of a single group leaves: the group goes.
  model.adjust(mid, kTop, -3);
  EXPECT_EQ(model.group_count(), 1u);
  EXPECT_FALSE(model.vote(mid, 0.0).has_value());
  EXPECT_THROW(model.adjust(low, kTop, -1), std::logic_error);
}

TEST(VotingModel, LeaveOneOutOfALabelTheGroupLacksKeepsEveryVoter) {
  // vote_excluding removes a voter only from a group that holds the
  // excluded label: two votes for one label, excluding another label,
  // still vote 2 of 2. Both group forms: the vote in the slot, and a
  // one-pair run (a label past 0xFFFE).
  Fixture f;
  for (const ml::ClassLabel label : {ml::ClassLabel{0}, ml::ClassLabel{0x10000}}) {
    SCOPED_TRACE(label);
    ParamView view;
    for (const netsim::CarrierId c : {0, 2}) {  // both 700 MHz: one group
      view.carrier.push_back(c);
      view.neighbor.push_back(netsim::kInvalidCarrier);
      view.entity.push_back(static_cast<std::size_t>(c));
      view.value.push_back(0);
      view.label.push_back(label);
    }
    const VotingModel model(view, f.deps, f.words);
    const GroupKey key = model.key_for(0, netsim::kInvalidCarrier);
    const auto vote = model.vote_excluding(key, label + 1, 0.0);
    ASSERT_TRUE(vote.has_value());
    EXPECT_EQ(vote->label, label);
    EXPECT_EQ(vote->count, 2);
    EXPECT_EQ(vote->group_size, 2);
    EXPECT_DOUBLE_EQ(vote->support(), 1.0);
    expect_same_vote(vote, reference_vote({{label, 2}}, label + 1, true));
  }
}

TEST(BackoffVoting, CoarseningAllSingleGroupsMatchesABuildOverTheRows) {
  // Every level-0 group holds one label, so level 0 keeps no run pairs and
  // the coarser levels are aggregated from slots alone. Labels follow band
  // and market: dropping market merges groups of different labels into
  // runs, dropping morphology merges groups of one label.
  Fixture f;
  for (std::size_t c = 10; c < f.topo.carrier_count(); ++c) {
    test::set_value(f.assignment.singular[0], c, c % 2 == 0 ? 9 : 7);  // market 1
  }
  f.rebuild_view();
  const std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                                  {false, f.schema.index_of("market")},
                                  {false, f.schema.index_of("morphology")}};
  const BackoffVoting backoff(f.view, deps, f.words, 3, 1);
  EXPECT_EQ(backoff.model_at(0).pair_count(), 0u);
  for (int level = 0; level < backoff.level_count(); ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const auto level_deps = backoff.deps_at(level);
    std::map<std::vector<netsim::AttrCode>, LabelCounts> groups;
    for (std::size_t r = 0; r < f.view.rows(); ++r) {
      std::vector<netsim::AttrCode> key_codes;
      for (const AttrRef& ref : level_deps) {
        key_codes.push_back(f.codes[ref.attr][static_cast<std::size_t>(f.view.carrier[r])]);
      }
      ++groups[key_codes][f.view.label[r]];
    }
    const VotingModel& model = backoff.model_at(level);
    EXPECT_EQ(model.pair_count(), run_pairs(groups));
    expect_summaries(model, groups);
  }
  // The 700 MHz groups: label 3 in market 0, label 9 in market 1.
  EXPECT_EQ(backoff.model_at(2).pair_count(), 2u);
}

TEST(BackoffVoting, RemapAndReorderRewriteSingleGroups) {
  // A mix of one-label and two-label groups across three levels. A
  // re-coded dictionary rewrites the labels held in slots and in runs; a
  // label sent past 0xFFFE moves its single group into a run; a dropped
  // label that still holds votes throws. Reordering the dependents must
  // give the groups of a fresh build over the re-coded view.
  Fixture f;
  test::set_value(f.assignment.singular[0], 2, 9);  // the 700 MHz, market 0 group gains a label
  f.rebuild_view();
  const std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                                  {false, f.schema.index_of("market")},
                                  {false, f.schema.index_of("morphology")}};
  BackoffVoting backoff(f.view, deps, f.words, 3, 1);
  ASSERT_EQ(f.view.labels.values, (std::vector<config::ValueIndex>{3, 7, 9}));

  // 3 -> 1, 7 -> 5, 9 -> 8: monotone, every code moves.
  const std::vector<ml::ClassLabel> recode{1, 5, 8};
  backoff.remap_labels(recode);
  ParamView recoded = f.view;
  for (ml::ClassLabel& label : recoded.label) label = recode[static_cast<std::size_t>(label)];
  const std::vector<AttrRef> reranked{deps[1], deps[0], deps[2]};
  backoff.reorder_deps(reranked);
  const BackoffVoting fresh(recoded, reranked, f.words, 3, 1);
  for (int level = 0; level < 3; ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const VotingModel& got = backoff.model_at(level);
    const VotingModel& want = fresh.model_at(level);
    EXPECT_EQ(got.pair_count(), want.pair_count());
    const auto a = got.group_summaries();
    const auto b = want.group_summaries();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t g = 0; g < a.size(); ++g) {
      EXPECT_EQ(a[g].codes, b[g].codes);
      EXPECT_EQ(a[g].total, b[g].total);
      EXPECT_EQ(a[g].winner, b[g].winner);
      EXPECT_EQ(a[g].winner_count, b[g].winner_count);
    }
    for (std::size_t r = 0; r < recoded.rows(); ++r) {
      const GroupKey key = got.key_for(recoded.carrier[r], netsim::kInvalidCarrier);
      expect_same_vote(got.vote(key, 0.0), want.vote(key, 0.0));
      expect_same_vote(got.vote_excluding(key, recoded.label[r], 0.0),
                       want.vote_excluding(key, recoded.label[r], 0.0));
    }
  }

  // Label 5 (the 1900 MHz groups, all single) past 0xFFFE: each such group
  // becomes a one-pair run and still votes for it.
  VotingModel model(recoded, deps, f.words);
  const std::size_t runs_before = model.pair_count();
  std::vector<ml::ClassLabel> widen(9, -1);
  widen[1] = 1;
  widen[5] = 0x10000;
  widen[8] = 0x10001;
  model.remap_labels(widen);
  EXPECT_GT(model.pair_count(), runs_before);
  const auto vote = model.vote(model.key_for(1, netsim::kInvalidCarrier), 0.75);
  ASSERT_TRUE(vote.has_value());
  EXPECT_EQ(vote->label, 0x10000);
  EXPECT_EQ(vote->runner_up, 0);
  // Dropping label 1, which single groups still vote for, throws.
  std::vector<ml::ClassLabel> drop(0x10002, -1);
  drop[0x10000] = 0;
  drop[0x10001] = 1;
  EXPECT_THROW(model.remap_labels(drop), std::logic_error);
}

TEST(BackoffVoting, KeysPastSixtyFourBitsVoteAndCoarsenExactly) {
  // Carrier-side plus neighbor-side fields of 9 + 9 attributes at 5 bits
  // (plus the 2-bit neighbor software_version) pass 64 bits, so the finer
  // levels keep a high key word. Twins differ only in software_version,
  // whose neighbor-side field lands in that high word: a table that
  // ignored it would merge the twins' groups. Every level must vote as a
  // brute-force tally of the rows, and each coarser level (aggregated from
  // the finer one, across the wide-to-narrow boundary) must hold exactly
  // the groups of a build over the rows.
  std::mt19937_64 rng(64);
  const netsim::Topology topo = synthetic_topology(80, 24, true, rng);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const auto codes = schema.encode_all(topo);
  const AttrWords words(schema, codes);
  const std::size_t software = schema.index_of("software_version");

  ParamView view;
  view.pairwise = true;
  for (netsim::CarrierId c = 0; c < static_cast<netsim::CarrierId>(topo.carrier_count()); ++c) {
    for (int k = 0; k < 3; ++k) {
      // Each row has its neighbor's twin as a row too: same carrier, same
      // fields but one, labels leaning opposite ways.
      const auto n = static_cast<netsim::CarrierId>(2 * (rng() % 40));
      for (const netsim::CarrierId neighbor : {n, static_cast<netsim::CarrierId>(n + 1)}) {
        view.carrier.push_back(c);
        view.neighbor.push_back(neighbor);
        view.entity.push_back(view.carrier.size() - 1);
        view.value.push_back(0);
        const bool lean = codes[software][static_cast<std::size_t>(neighbor)] == 1;
        view.label.push_back(rng() % 4 == 0 ? 2 : (lean ? 1 : 0));
      }
    }
  }

  std::vector<AttrRef> deps{{true, software}};
  for (const AttrRef& ref : drawn_refs(schema, false)) deps.push_back(ref);
  for (const AttrRef& ref : drawn_refs(schema, true)) deps.push_back(ref);
  const KeyMask mask = words.mask(deps);
  ASSERT_GT(std::popcount(mask.carrier) + std::popcount(mask.neighbor), 64);

  const BackoffVoting backoff(view, deps, words, static_cast<int>(deps.size()), 1);
  ASSERT_EQ(backoff.level_count(), static_cast<int>(deps.size()));
  int wide_levels = 0;
  for (int level = 0; level < backoff.level_count(); ++level) {
    SCOPED_TRACE("level " + std::to_string(level));
    const auto level_deps = backoff.deps_at(level);
    const KeyMask level_mask = words.mask(level_deps);
    wide_levels += std::popcount(level_mask.carrier) + std::popcount(level_mask.neighbor) > 64;

    // Brute force: every row's codes on this level's dependents.
    const auto codes_of = [&](std::size_t r) {
      std::vector<netsim::AttrCode> out;
      for (const AttrRef& ref : level_deps) {
        const netsim::CarrierId c = ref.neighbor_side ? view.neighbor[r] : view.carrier[r];
        out.push_back(codes[ref.attr][static_cast<std::size_t>(c)]);
      }
      return out;
    };
    std::map<std::vector<netsim::AttrCode>, LabelCounts> groups;
    for (std::size_t r = 0; r < view.rows(); ++r) ++groups[codes_of(r)][view.label[r]];

    const VotingModel& model = backoff.model_at(level);
    ASSERT_EQ(model.group_count(), groups.size());
    expect_summaries(model, groups);
    expect_summaries(VotingModel(view, level_deps, words), groups);
    for (std::size_t r = 0; r < view.rows(); ++r) {
      const GroupKey key = model.key_for(view.carrier[r], view.neighbor[r]);
      const LabelCounts& counts = groups.at(codes_of(r));
      expect_same_vote(model.vote(key, 0.0), reference_vote(counts, -1, false));
      expect_same_vote(model.vote_excluding(key, view.label[r], 0.0),
                       reference_vote(counts, view.label[r], true));
    }
    if (::testing::Test::HasFailure()) return;
  }
  EXPECT_GE(wide_levels, 3);
  EXPECT_LT(wide_levels, backoff.level_count());
}

TEST(BackoffVoting, ReorderKeepsTablesOfAnUnchangedSet) {
  Fixture f;
  const std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                                  {false, f.schema.index_of("market")},
                                  {false, f.schema.index_of("morphology")}};
  BackoffVoting backoff(f.view, deps, f.words, 3, 1);
  // Swap the two strongest: level 0 and level 2's one-attribute prefix
  // change order or membership; the result must equal a fresh build.
  const std::vector<AttrRef> reranked{deps[1], deps[0], deps[2]};
  backoff.reorder_deps(reranked);
  const BackoffVoting fresh(f.view, reranked, f.words, 3, 1);
  for (int level = 0; level < 3; ++level) {
    const auto a = backoff.model_at(level).group_summaries();
    const auto b = fresh.model_at(level).group_summaries();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t g = 0; g < a.size(); ++g) {
      EXPECT_EQ(a[g].codes, b[g].codes);
      EXPECT_EQ(a[g].total, b[g].total);
      EXPECT_EQ(a[g].winner, b[g].winner);
    }
  }
  EXPECT_THROW(backoff.reorder_deps(f.deps), std::logic_error);
}

TEST(BackoffVoting, LevelZeroWinsWhenStrong) {
  Fixture f;
  const BackoffVoting backoff(f.view, f.deps, f.words, 3, 1);
  const auto decision = backoff.vote(0, netsim::kInvalidCarrier, 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 0);
  EXPECT_EQ(decision->vote.group_size, 8);
}

TEST(BackoffVoting, DepsAtShrinksByLevel) {
  Fixture f;
  std::vector<AttrRef> deps{{false, 0}, {false, 1}, {false, 2}};
  const BackoffVoting backoff(f.view, deps, f.words, 3);
  EXPECT_EQ(backoff.level_count(), 3);
  EXPECT_EQ(backoff.deps_at(0).size(), 3u);
  EXPECT_EQ(backoff.deps_at(2).size(), 1u);
  EXPECT_THROW(BackoffVoting(f.view, deps, f.words, 0), std::invalid_argument);
}

TEST(BackoffVoting, EmptyDepsVoteOverWholePopulation) {
  Fixture f;
  const BackoffVoting backoff(f.view, {}, f.words, 3);
  EXPECT_EQ(backoff.level_count(), 1);
  // 8-vs-8 between values 3 and 7: no 75% winner.
  EXPECT_FALSE(backoff.vote(0, netsim::kInvalidCarrier, 0.75).has_value());
  EXPECT_TRUE(backoff.vote(0, netsim::kInvalidCarrier, 0.5).has_value());
}

TEST(BackoffVoting, LocalBackoffUsesCandidateRows) {
  Fixture f;
  std::vector<AttrRef> deps{{false, f.schema.index_of("carrier_frequency")},
                            {false, f.schema.index_of("market")}};
  const BackoffVoting backoff(f.view, deps, f.words, 2, /*min_voters=*/2);
  // Neighborhood of carrier 4 (site 2, 700): carriers 5, 2, 6 -> matching
  // rows at level 0: carriers 2 and 6 (same freq AND market) = quorum 2.
  const auto decision = backoff.local(f.labels(), f.topo.neighborhood(4), 4,
                                      netsim::kInvalidCarrier, -1, 0.75);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(decision->level, 0);
  EXPECT_EQ(decision->vote.group_size, 2);
}

}  // namespace
}  // namespace auric::core
