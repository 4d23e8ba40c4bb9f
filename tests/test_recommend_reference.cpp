// Reference-checked property test: a naive recommender re-derives every
// decision by brute force — each backoff prefix scans every configured slot
// of the parameter, compares attribute codes one by one, and applies the
// 75% threshold and the quorum of DESIGN.md §5 — and must agree with the
// engine's packed-word tables on seeded small random worlds: a fresh
// engine, a clone that outlives its original, the clone after incremental
// relearns with random add/update/erase deltas and label splices, and
// cold-start recommend_for with attribute values the inventory never saw.
#include <map>
#include <memory>
#include <optional>
#include <set>
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
class NaiveRecommender {
 public:
  NaiveRecommender(const AuricEngine& engine, const config::ConfigAssignment& assignment)
      : engine_(engine), slots_(engine.catalog().size()) {
    const netsim::Topology& topo = engine.topology();
    for (std::size_t p = 0; p < slots_.size(); ++p) {
      const auto param = static_cast<config::ParamId>(p);
      const bool pairwise = engine.catalog().at(param).kind == config::ParamKind::kPairwise;
      const std::size_t pos = kind_position(engine.catalog(), param);
      const auto& column = pairwise ? assignment.pairwise[pos] : assignment.singular[pos];
      for (std::size_t e = 0; e < column.value.size(); ++e) {
        if (column.value[e] == config::kUnset) continue;
        Observation o;
        o.value = column.value[e];
        if (pairwise) {
          o.carrier = topo.edges[e].from;
          o.neighbor = topo.edges[e].to;
        } else {
          o.carrier = static_cast<CarrierId>(e);
        }
        slots_[p].push_back(o);
      }
    }
  }

  /// Decision for a subject with carrier-side `codes` (one per attribute).
  /// `self` (an index into the parameter's slots) is left out of every vote.
  Expected recommend(config::ParamId param, const std::vector<AttrCode>& codes,
                     CarrierId neighbor, const std::vector<CarrierId>& hood,
                     std::optional<std::size_t> self) const {
    const AuricOptions& options = engine_.options();
    const std::vector<AttrRef>& deps = engine_.dependencies(param).dependent;
    const int levels =
        deps.empty() ? 1 : std::min(options.backoff_levels, static_cast<int>(deps.size()));
    const std::set<CarrierId> local(hood.begin(), hood.end());
    for (bool is_local : {true, false}) {
      if (is_local && !options.use_proximity) continue;
      for (int level = 0; level < levels; ++level) {
        const std::size_t width = deps.size() - static_cast<std::size_t>(level);
        std::map<config::ValueIndex, std::int32_t> tally;
        std::int32_t group = 0;
        const auto& slots = slots_[static_cast<std::size_t>(param)];
        for (std::size_t s = 0; s < slots.size(); ++s) {
          if (self && *self == s) continue;
          if (is_local && local.count(slots[s].carrier) == 0) continue;
          if (!matches(slots[s], deps, width, codes, neighbor)) continue;
          ++tally[slots[s].value];
          ++group;
        }
        Expected e;
        for (const auto& [value, count] : tally) {  // ascending: ties keep the smaller value
          if (count > e.votes) {
            e.runner_up = e.votes;
            e.votes = count;
            e.value = value;
          } else if (count > e.runner_up) {
            e.runner_up = count;
          }
        }
        e.group = group;
        if (group == 0) continue;
        if (static_cast<double>(e.votes) / static_cast<double>(group) < options.vote_threshold) {
          continue;
        }
        const bool quorum = group >= 3 || (!is_local && level + 1 == levels);
        if (!quorum) continue;
        e.level = level;
        e.source = is_local ? RecommendationSource::kLocalVote : RecommendationSource::kGlobalVote;
        return e;
      }
    }
    Expected fallback;
    fallback.value = engine_.catalog().at(param).default_index;
    return fallback;
  }

  const std::vector<Observation>& slots(config::ParamId param) const {
    return slots_[static_cast<std::size_t>(param)];
  }

 private:
  const AuricEngine& engine_;
  std::vector<std::vector<Observation>> slots_;  // [param]

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

/// The backoff level behind the engine's recommendation, read from the
/// voting layer along the same local-then-global path.
int engine_level(const AuricEngine& engine, config::ParamId param, CarrierId carrier,
                 CarrierId neighbor, std::int64_t self_row) {
  const ParamView& view = engine.view(param);
  const BackoffVoting& voting = engine.voting(param);
  const double threshold = engine.options().vote_threshold;
  if (const auto d = voting.local(view, engine.topology().neighborhood(carrier), carrier,
                                  neighbor, self_row, threshold)) {
    return d->level;
  }
  const auto d = self_row >= 0 ? voting.vote_excluding(
                                     carrier, neighbor,
                                     view.label[static_cast<std::size_t>(self_row)], threshold)
                               : voting.vote(carrier, neighbor, threshold);
  return d ? d->level : -1;
}

/// Every singular slot and a seeded sample of pair-wise slots.
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
  const auto check = [&](config::ParamId param, CarrierId carrier, CarrierId neighbor) {
    SCOPED_TRACE(testing::Message() << "param " << param << " carrier " << carrier
                                    << " neighbor " << neighbor);
    std::optional<std::size_t> self;
    const auto& slots = naive.slots(param);
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].carrier == carrier && slots[s].neighbor == neighbor) self = s;
    }
    std::int64_t self_row = -1;
    const ParamView& view = engine.view(param);
    for (std::uint32_t row : view.rows_of(carrier)) {
      if (view.neighbor[row] == neighbor) self_row = row;
    }
    const Expected want =
        naive.recommend(param, codes_of(carrier), neighbor, topo.neighborhood(carrier), self);
    expect_matches(want, engine.recommend(param, carrier, neighbor),
                   engine_level(engine, param, carrier, neighbor, self_row));
  };
  for (config::ParamId param : engine.catalog().singular_ids()) {
    for (const netsim::Carrier& c : topo.carriers) check(param, c.id, kInvalidCarrier);
  }
  for (config::ParamId param : engine.catalog().pairwise_ids()) {
    for (int i = 0; i < 12; ++i) {
      const auto& edge = topo.edges[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(topo.edge_count()) - 1))];
      check(param, edge.from, edge.to);
    }
  }

  // Cold start: planned carriers cloned from inventory ones, some with an
  // attribute value no carrier has (the all-ones unseen field).
  const AttrWords words(engine.schema(), attr_codes);
  for (int i = 0; i < 16; ++i) {
    netsim::Carrier planned = topo.carriers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(topo.carrier_count()) - 1))];
    if (i % 2 == 0) planned.frequency_mhz = 9999;
    if (i % 4 == 1) planned.tracking_area_code = 99999;
    const std::vector<CarrierId> x2 = topo.neighborhood(planned.id);
    planned.id = static_cast<CarrierId>(topo.carrier_count() + 7);
    const std::vector<AttrCode> codes = engine.schema().encode(planned);
    const std::uint64_t word = words.pack(codes);
    for (config::ParamId param : engine.catalog().singular_ids()) {
      SCOPED_TRACE(testing::Message() << "cold start " << i << " param " << param);
      const double threshold = engine.options().vote_threshold;
      const BackoffVoting& voting = engine.voting(param);
      auto d = voting.local_word(engine.view(param), x2, word, kInvalidCarrier, -1, threshold);
      if (!d) d = voting.vote_word(word, kInvalidCarrier, threshold);
      expect_matches(naive.recommend(param, codes, kInvalidCarrier, x2, std::nullopt),
                     engine.recommend_for(planned, x2, param), d ? d->level : -1);
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
    for (config::ValueIndex& v : column.value) {
      const double u = rng.uniform();
      if (u < 0.03) {
        v = config::kUnset;
      } else if (u < 0.08) {
        v = static_cast<config::ValueIndex>(rng.uniform_int(0, domain.size() - 1));
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
    for (config::ValueIndex& v : column.value) {
      if (rng.uniform() < 0.05) v = config::kUnset;
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
}

INSTANTIATE_TEST_SUITE_P(SeededWorlds, RecommendReference, testing::Values(11u, 23u, 47u));

}  // namespace
}  // namespace auric::core
