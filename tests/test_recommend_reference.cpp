// Reference-checked property test: a naive recommender re-derives every
// decision by brute force — each backoff prefix scans every configured slot
// of the parameter, compares attribute codes one by one, and applies the
// 75% threshold and the quorum of DESIGN.md §5 — and must agree with the
// engine's packed-word tables and label matrices on seeded small random
// worlds: a fresh engine, a clone that outlives its original, the clone
// after incremental relearns with random add/update/erase deltas and label
// splices, every singular and every pair-wise slot, cold-start
// recommend_for (singular, and pair-wise toward a planned neighbor) with
// attribute values the inventory never saw, the §6 weighted local vote
// (alone and through recommend()), and an engine scoped to one market.
// The reference finds a subject's own slot by scanning the view's rows,
// never through an index the engine serves from.
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "config/ground_truth.h"
#include "core/engine.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace auric::core {
namespace {

using netsim::AttrCode;
using netsim::CarrierId;
using netsim::kInvalidCarrier;

struct Observation {
  CarrierId carrier = kInvalidCarrier;
  CarrierId neighbor = kInvalidCarrier;
  config::ValueIndex value = config::kUnset;
};

struct Expected {
  RecommendationSource source = RecommendationSource::kRulebookDefault;
  int level = -1;
  config::ValueIndex value = config::kUnset;
  std::int32_t votes = 0;
  std::int32_t runner_up = 0;
  std::int32_t group = 0;
};

/// The naive recommender: the configured slots of `assignment` and the
/// engine's learned dependent lists, nothing else of the engine's state.
/// For an engine scoped to a market, only slots whose subject carrier lies
/// in that market vote, globally or locally.
class NaiveRecommender {
 public:
  NaiveRecommender(const AuricEngine& engine, const config::ConfigAssignment& assignment)
      : engine_(engine), slots_(engine.catalog().size()) {
    const netsim::Topology& topo = engine.topology();
    const std::optional<netsim::MarketId> market = engine.options().market;
    for (std::size_t p = 0; p < slots_.size(); ++p) {
      const auto param = static_cast<config::ParamId>(p);
      const bool pairwise = engine.catalog().at(param).kind == config::ParamKind::kPairwise;
      const std::size_t pos = kind_position(engine.catalog(), param);
      const auto& column = pairwise ? assignment.pairwise[pos] : assignment.singular[pos];
      for (std::size_t i = 0; i < column.configured_count(); ++i) {
        const std::size_t e = column.entity(i);
        Observation o;
        o.value = column.value_at(i);
        if (pairwise) {
          o.carrier = topo.edges[e].from;
          o.neighbor = topo.edges[e].to;
        } else {
          o.carrier = static_cast<CarrierId>(e);
        }
        if (market && topo.carriers[static_cast<std::size_t>(o.carrier)].market != *market) {
          continue;
        }
        slots_[p].push_back(o);
      }
    }
  }

  /// Decision for a subject with carrier-side `codes` (one per attribute).
  /// `self` (an index into the parameter's slots) is left out of every vote.
  /// The local vote counts the engine's carrier weights (none = one each).
  Expected recommend(config::ParamId param, const std::vector<AttrCode>& codes,
                     CarrierId neighbor, const std::vector<CarrierId>& hood,
                     std::optional<std::size_t> self) const {
    const AuricOptions& options = engine_.options();
    if (options.use_proximity) {
      if (auto e = ladder(param, codes, neighbor, &hood, self, options.carrier_weights)) {
        return *e;
      }
    }
    if (auto e = ladder(param, codes, neighbor, nullptr, self, {})) return *e;
    Expected fallback;
    fallback.value = engine_.catalog().at(param).default_index;
    return fallback;
  }

  /// The §6 weighted local vote alone: each voter counts its carrier's
  /// weight; counts are re-expressed in voter units as the engine does.
  std::optional<Expected> weighted_local(config::ParamId param, const std::vector<AttrCode>& codes,
                                         CarrierId neighbor, const std::vector<CarrierId>& hood,
                                         std::optional<std::size_t> self,
                                         const std::vector<double>& weights) const {
    return ladder(param, codes, neighbor, &hood, self, weights);
  }

  const std::vector<Observation>& slots(config::ParamId param) const {
    return slots_[static_cast<std::size_t>(param)];
  }

 private:
  const AuricEngine& engine_;
  std::vector<std::vector<Observation>> slots_;  // [param]

  /// The backoff ladder over every slot (global, `hood` null) or over the
  /// slots whose subject lies in `hood` (local; quorum at every level).
  std::optional<Expected> ladder(config::ParamId param, const std::vector<AttrCode>& codes,
                                 CarrierId neighbor, const std::vector<CarrierId>* hood,
                                 std::optional<std::size_t> self,
                                 const std::vector<double>& weights) const {
    const AuricOptions& options = engine_.options();
    const std::vector<AttrRef>& deps = engine_.dependencies(param).dependent;
    const int levels =
        deps.empty() ? 1 : std::min(options.backoff_levels, static_cast<int>(deps.size()));
    std::set<CarrierId> local;
    if (hood != nullptr) local.insert(hood->begin(), hood->end());
    for (int level = 0; level < levels; ++level) {
      const std::size_t width = deps.size() - static_cast<std::size_t>(level);
      std::map<config::ValueIndex, double> tally;
      double total = 0.0;
      std::int32_t group = 0;
      const auto& slots = slots_[static_cast<std::size_t>(param)];
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (self && *self == s) continue;
        if (hood != nullptr && local.count(slots[s].carrier) == 0) continue;
        if (!matches(slots[s], deps, width, codes, neighbor)) continue;
        const double w =
            weights.empty() ? 1.0 : weights[static_cast<std::size_t>(slots[s].carrier)];
        tally[slots[s].value] += w;
        total += w;
        ++group;
      }
      if (group == 0) continue;
      Expected e;
      double best = 0.0;
      double runner = 0.0;
      for (const auto& [value, weight] : tally) {  // ascending: ties keep the smaller value
        if (weight > best) {
          runner = best;
          best = weight;
          e.value = value;
        } else if (weight > runner) {
          runner = weight;
        }
      }
      if (best / total < options.vote_threshold) continue;
      const bool quorum = group >= 3 || (hood == nullptr && level + 1 == levels);
      if (!quorum) continue;
      // Weighted counts are re-expressed in voter units, as the engine does.
      const auto units = [&](double w) {
        return static_cast<std::int32_t>(std::lround(weights.empty() ? w : w / total * group));
      };
      e.votes = units(best);
      e.runner_up = units(runner);
      e.group = group;
      e.level = level;
      e.source = hood != nullptr ? RecommendationSource::kLocalVote
                                 : RecommendationSource::kGlobalVote;
      return e;
    }
    return std::nullopt;
  }

  bool matches(const Observation& o, const std::vector<AttrRef>& deps, std::size_t width,
               const std::vector<AttrCode>& codes, CarrierId neighbor) const {
    const auto& attr_codes = engine_.attr_codes();
    for (std::size_t d = 0; d < width; ++d) {
      const AttrRef& ref = deps[d];
      const AttrCode want = ref.neighbor_side
                                ? attr_codes[ref.attr][static_cast<std::size_t>(neighbor)]
                                : codes[ref.attr];
      const CarrierId subject = ref.neighbor_side ? o.neighbor : o.carrier;
      if (attr_codes[ref.attr][static_cast<std::size_t>(subject)] != want) return false;
    }
    return true;
  }
};

void expect_matches(const Expected& want, const Recommendation& rec, int engine_level) {
  EXPECT_EQ(rec.source, want.source);
  EXPECT_EQ(rec.value, want.value);
  EXPECT_EQ(engine_level, want.level);
  if (want.source == RecommendationSource::kRulebookDefault) return;
  EXPECT_EQ(rec.votes, want.votes);
  EXPECT_EQ(rec.group_size, want.group);
  EXPECT_EQ(rec.support, static_cast<double>(want.votes) / static_cast<double>(want.group));
  EXPECT_EQ(rec.margin,
            static_cast<double>(want.votes - want.runner_up) / static_cast<double>(want.group));
}

/// The subject's own slot, read from the engine's label column: its entity
/// (the carrier, or its edge toward `neighbor`) and label, or nullopt when
/// the slot is not configured.
std::optional<std::pair<std::int64_t, ml::ClassLabel>> own_slot(const AuricEngine& engine,
                                                                 config::ParamId param,
                                                                 CarrierId carrier,
                                                                 CarrierId neighbor) {
  const LabelColumn labels = engine.label_column(param);
  const netsim::Topology& topo = engine.topology();
  std::optional<std::size_t> entity;
  if (labels.topology == nullptr) {
    entity = static_cast<std::size_t>(carrier);
  } else {
    const auto c = static_cast<std::size_t>(carrier);
    for (std::size_t e = topo.edge_offsets[c]; e < topo.edge_offsets[c + 1]; ++e) {
      if (topo.edges[e].to == neighbor) entity = e;
    }
  }
  if (!entity || labels.label(*entity) < 0) return std::nullopt;
  return std::pair{static_cast<std::int64_t>(*entity), labels.label(*entity)};
}

/// The backoff level behind the engine's recommendation, read from the
/// voting layer along the same local-then-global path.
int engine_level(const AuricEngine& engine, config::ParamId param, CarrierId carrier,
                 CarrierId neighbor) {
  const auto self = own_slot(engine, param, carrier, neighbor);
  const BackoffVoting& voting = engine.voting(param);
  const AuricOptions& options = engine.options();
  const double threshold = options.vote_threshold;
  if (options.use_proximity) {
    if (const auto d =
            voting.local(engine.label_column(param), engine.topology().neighborhood(carrier),
                         carrier, neighbor, self ? self->first : -1, threshold,
                         options.carrier_weights)) {
      return d->level;
    }
  }
  const auto d = self ? voting.vote_excluding(carrier, neighbor, self->second, threshold)
                      : voting.vote(carrier, neighbor, threshold);
  return d ? d->level : -1;
}

/// Every singular and every pair-wise slot, the weighted local vote on a
/// sample of them, and cold starts.
void check_engine(const AuricEngine& engine, const config::ConfigAssignment& assignment,
                  std::uint64_t seed) {
  const NaiveRecommender naive(engine, assignment);
  const netsim::Topology& topo = engine.topology();
  const auto& attr_codes = engine.attr_codes();
  util::Rng rng(seed);
  const auto codes_of = [&](CarrierId c) {
    std::vector<AttrCode> codes;
    for (const auto& column : attr_codes) codes.push_back(column[static_cast<std::size_t>(c)]);
    return codes;
  };
  const auto naive_self = [&](config::ParamId param, CarrierId carrier, CarrierId neighbor) {
    std::optional<std::size_t> self;
    const auto& slots = naive.slots(param);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].carrier == carrier && slots[s].neighbor == neighbor) self = s;
    }
    return self;
  };
  const auto check = [&](config::ParamId param, CarrierId carrier, CarrierId neighbor) {
    SCOPED_TRACE(testing::Message() << "param " << param << " carrier " << carrier
                                    << " neighbor " << neighbor);
    const Expected want = naive.recommend(param, codes_of(carrier), neighbor,
                                          topo.neighborhood(carrier),
                                          naive_self(param, carrier, neighbor));
    expect_matches(want, engine.recommend(param, carrier, neighbor),
                   engine_level(engine, param, carrier, neighbor));
  };
  for (config::ParamId param : engine.catalog().singular_ids()) {
    for (const netsim::Carrier& c : topo.carriers) check(param, c.id, kInvalidCarrier);
  }
  for (config::ParamId param : engine.catalog().pairwise_ids()) {
    for (const netsim::X2Edge& edge : topo.edges) check(param, edge.from, edge.to);
  }

  // The §6 weighted local vote (dyadic weights, so every weight sum is
  // exact in any order) over 2-hop neighborhoods, each subject's own slot
  // excluded.
  std::vector<double> weights(topo.carrier_count());
  for (double& w : weights) w = 0.25 * static_cast<double>(rng.uniform_int(1, 12));
  const auto check_weighted = [&](config::ParamId param, CarrierId carrier, CarrierId neighbor) {
    SCOPED_TRACE(testing::Message() << "weighted param " << param << " carrier " << carrier
                                    << " neighbor " << neighbor);
    const std::vector<CarrierId> hood = topo.neighborhood_hops(carrier, 2);
    const auto self = own_slot(engine, param, carrier, neighbor);
    const auto got = engine.voting(param).local(engine.label_column(param), hood, carrier,
                                                neighbor, self ? self->first : -1,
                                                engine.options().vote_threshold, weights);
    const auto want = naive.weighted_local(param, codes_of(carrier), neighbor, hood,
                                           naive_self(param, carrier, neighbor), weights);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (!got) return;
    EXPECT_EQ(got->level, want->level);
    EXPECT_EQ(engine.view(param).labels.values[static_cast<std::size_t>(got->vote.label)],
              want->value);
    EXPECT_EQ(got->vote.count, want->votes);
    EXPECT_EQ(got->vote.runner_up, want->runner_up);
    EXPECT_EQ(got->vote.group_size, want->group);
  };
  for (config::ParamId param : engine.catalog().singular_ids()) {
    for (int i = 0; i < 8; ++i) {
      check_weighted(param,
                     static_cast<CarrierId>(rng.uniform_int(
                         0, static_cast<std::int64_t>(topo.carrier_count()) - 1)),
                     kInvalidCarrier);
    }
  }
  for (config::ParamId param : engine.catalog().pairwise_ids()) {
    for (int i = 0; i < 8; ++i) {
      const auto& edge = topo.edges[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(topo.edge_count()) - 1))];
      check_weighted(param, edge.from, edge.to);
    }
  }

  // Cold start: planned carriers cloned from inventory ones, some with an
  // attribute value no carrier has (the all-ones unseen field), planned
  // into the clone's X2 neighborhood; pair-wise slots point at each planned
  // neighbor in turn.
  const AttrWords words(engine.schema(), attr_codes);
  const double threshold = engine.options().vote_threshold;
  for (int i = 0; i < 16; ++i) {
    netsim::Carrier planned = topo.carriers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.carrier_count()) - 1))];
    if (i % 2 == 0) planned.frequency_mhz = 9999;
    if (i % 4 == 1) planned.tracking_area_code = 99999;
    const std::vector<CarrierId> x2 = topo.neighborhood(planned.id);
    planned.id = static_cast<CarrierId>(topo.carrier_count() + 7);
    const std::vector<AttrCode> codes = engine.schema().encode(planned);
    const std::uint64_t word = words.pack(codes);
    const auto check_cold = [&](config::ParamId param, CarrierId neighbor) {
      SCOPED_TRACE(testing::Message() << "cold start " << i << " param " << param
                                      << " neighbor " << neighbor);
      const BackoffVoting& voting = engine.voting(param);
      auto d = voting.local_word(engine.label_column(param), x2, word, neighbor, -1, threshold,
                                 engine.options().carrier_weights);
      if (!d) d = voting.vote_word(word, neighbor, threshold);
      expect_matches(naive.recommend(param, codes, neighbor, x2, std::nullopt),
                     engine.recommend_for(planned, x2, param, neighbor), d ? d->level : -1);
    };
    for (config::ParamId param : engine.catalog().singular_ids()) {
      check_cold(param, kInvalidCarrier);
    }
    for (config::ParamId param : engine.catalog().pairwise_ids()) {
      for (CarrierId neighbor : x2) check_cold(param, neighbor);
    }
  }
}

/// A day's worth of random slot deltas: updates to observed values, erases,
/// adds of unset slots, and values no slot of the parameter held before
/// (a label splice).
config::ConfigAssignment mutate(const config::ParamCatalog& catalog,
                                const config::ConfigAssignment& base, util::Rng& rng) {
  config::ConfigAssignment next = base;
  const auto churn = [&](config::ParamColumn& column, const config::ValueDomain& domain) {
    for (std::size_t e = 0; e < column.entities(); ++e) {
      const double u = rng.uniform();
      if (u < 0.03) {
        test::set_value(column, e, config::kUnset);
      } else if (u < 0.08) {
        test::set_value(column, e,
                        static_cast<config::ValueIndex>(rng.uniform_int(0, domain.size() - 1)));
      }
    }
  };
  for (std::size_t i = 0; i < catalog.singular_ids().size(); ++i) {
    churn(next.singular[i], catalog.at(catalog.singular_ids()[i]).domain);
  }
  for (std::size_t i = 0; i < catalog.pairwise_ids().size(); ++i) {
    churn(next.pairwise[i], catalog.at(catalog.pairwise_ids()[i]).domain);
  }
  return next;
}

class RecommendReference : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RecommendReference, EngineMatchesBruteForceVotes) {
  const std::uint64_t seed = GetParam();
  const netsim::Topology topo = test::small_generated_topology(seed, 2, 5);
  const netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  const config::ParamCatalog catalog = config::ParamCatalog::standard();
  config::ConfigAssignment assignment = config::GroundTruthModel(topo, schema, catalog).assign();
  util::Rng rng(seed * 7919 + 1);
  // Start with a few holes so the relearn below has slots to add.
  for (auto& column : assignment.singular) {
    for (std::size_t c = 0; c < column.entities(); ++c) {
      if (rng.uniform() < 0.05) test::set_value(column, c, config::kUnset);
    }
  }

  auto original = std::make_unique<AuricEngine>(topo, schema, catalog, assignment);
  {
    SCOPED_TRACE("fresh");
    check_engine(*original, assignment, seed);
  }
  AuricEngine clone(*original);
  original.reset();  // the clone must not lean on the original's storage
  {
    SCOPED_TRACE("clone");
    check_engine(clone, assignment, seed + 1);
  }
  for (int day = 0; day < 2; ++day) {
    assignment = mutate(catalog, assignment, rng);
    IncrementalRelearnStats stats;
    clone.incremental_relearn(assignment, {}, &stats);
    EXPECT_GT(stats.params_remapped, 0u);  // the deltas did splice some alphabets
    SCOPED_TRACE(testing::Message() << "relearned day " << day);
    check_engine(clone, assignment, seed + 2 + static_cast<std::uint64_t>(day));
  }

  // The per-market evaluation protocol: an engine learned over market 1
  // alone, checked against a reference that drops every other market's
  // slots by itself.
  AuricOptions scoped;
  scoped.market = netsim::MarketId{1};
  {
    SCOPED_TRACE("market-scoped");
    check_engine(AuricEngine(topo, schema, catalog, assignment, scoped), assignment, seed + 5);
  }
  // The §6 weighted local vote through recommend() (dyadic weights: every
  // weight sum is exact in any order).
  AuricOptions weighted;
  weighted.carrier_weights.resize(topo.carrier_count());
  for (double& w : weighted.carrier_weights) {
    w = 0.25 * static_cast<double>(rng.uniform_int(1, 12));
  }
  {
    SCOPED_TRACE("weighted");
    check_engine(AuricEngine(topo, schema, catalog, assignment, weighted), assignment, seed + 6);
  }
}

INSTANTIATE_TEST_SUITE_P(SeededWorlds, RecommendReference, testing::Values(11u, 23u, 47u));

}  // namespace
}  // namespace auric::core
