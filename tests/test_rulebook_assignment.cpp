#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/rulebook.h"
#include "test_helpers.h"
#include "util/rng.h"

namespace auric::config {
namespace {

struct Fixture {
  netsim::Topology topo = test::small_generated_topology(6, 2, 14);
  netsim::AttributeSchema schema = netsim::AttributeSchema::standard(topo);
  ParamCatalog catalog = ParamCatalog::standard();
  GroundTruthModel model{topo, schema, catalog};
  Rulebook rulebook{model, catalog};
};

TEST(Rulebook, DefaultValuesComeFromTheCatalog) {
  Fixture f;
  for (std::size_t p = 0; p < f.catalog.size(); ++p) {
    EXPECT_EQ(f.rulebook.default_value(static_cast<ParamId>(p)),
              f.catalog[p].default_index);
  }
}

TEST(Rulebook, LookupsStayInsideDomains) {
  Fixture f;
  for (ParamId p : f.catalog.singular_ids()) {
    for (const netsim::Carrier& c : f.topo.carriers) {
      EXPECT_TRUE(f.catalog.at(p).domain.contains(f.rulebook.lookup(p, c)));
    }
  }
}

TEST(Rulebook, PairwiseLookupUsesNeighborAttributes) {
  Fixture f;
  // The rule-book value for a pair-wise parameter may differ by neighbor;
  // at minimum it must be deterministic and in-domain.
  const ParamId p = f.catalog.id_of("threshXHigh");
  const netsim::Carrier& c = f.topo.carriers[0];
  for (netsim::CarrierId n : f.topo.neighborhood(c.id)) {
    const ValueIndex v = f.rulebook.lookup(p, c, f.topo.carrier(n));
    EXPECT_TRUE(f.catalog.at(p).domain.contains(v));
    EXPECT_EQ(v, f.rulebook.lookup(p, c, f.topo.carrier(n)));
  }
}

TEST(Rulebook, CannotExpressMarketStyles) {
  // Two carriers with identical attributes in different markets get the SAME
  // rule-book value even when their intended values differ — that gap is
  // Auric's raison d'etre (§2.4). Verified statistically: across all
  // parameters, the rule-book matches intent strictly less often than the
  // ground truth deviates from defaults.
  Fixture f;
  const ConfigAssignment assignment = f.model.assign();
  std::size_t intent_matches = 0;
  std::size_t slots = 0;
  const auto& ids = f.catalog.singular_ids();
  for (std::size_t si = 0; si < ids.size(); ++si) {
    for (std::size_t c = 0; c < f.topo.carrier_count(); ++c) {
      const ValueIndex intended = assignment.singular[si].intended_of(c);
      if (intended == kUnset) continue;
      ++slots;
      const ValueIndex rb = f.rulebook.lookup(ids[si], f.topo.carriers[c]);
      intent_matches += rb == intended ? 1 : 0;
    }
  }
  const double match_rate = static_cast<double>(intent_matches) / static_cast<double>(slots);
  EXPECT_LT(match_rate, 0.95);  // rule-books are incomplete...
  EXPECT_GT(match_rate, 0.50);  // ...but far from useless
}

/// A column of the given values (kUnset = not configured), intent equal to
/// the value.
ParamColumn column_of(const std::vector<ValueIndex>& value) {
  return ParamColumn::from_dense(value, value, std::vector<Cause>(value.size(), Cause::kDefault));
}

TEST(ParamColumn, ConfiguredCountSkipsUnset) {
  const ParamColumn col = column_of({1, kUnset, 3, kUnset});
  EXPECT_EQ(col.configured_count(), 2u);
  EXPECT_EQ(col.entities(), 4u);
}

TEST(ConfigAssignment, TotalConfiguredSumsBothKinds) {
  ConfigAssignment assignment;
  assignment.singular.push_back(column_of({1, 2, kUnset}));
  assignment.singular.push_back(column_of({kUnset, kUnset, kUnset}));
  assignment.pairwise.push_back(column_of({5, kUnset}));
  EXPECT_EQ(assignment.total_configured(), 3u);
}

/// A dense model of one column: every entity's value, intent and cause.
struct DenseColumn {
  std::vector<ValueIndex> value;
  std::vector<ValueIndex> intended;
  std::vector<Cause> cause;

  void set(std::size_t e, ValueIndex v, ValueIndex i, Cause c) {
    value[e] = v;
    intended[e] = v == kUnset ? kUnset : i;
    cause[e] = v == kUnset ? Cause::kDefault : c;
  }
};

/// Every read of `col` agrees with the dense model `ref`.
void expect_matches(const ParamColumn& col, const DenseColumn& ref,
                    const std::vector<std::size_t>& offsets) {
  ASSERT_EQ(col.entities(), ref.value.size());
  std::size_t configured = 0;
  for (std::size_t e = 0; e < ref.value.size(); ++e) {
    EXPECT_EQ(col.value[e], ref.value[e]) << e;
    EXPECT_EQ(col.intended_of(e), ref.intended[e]) << e;
    const std::size_t i = col.find(e);
    if (ref.value[e] == kUnset) {
      EXPECT_EQ(i, ParamColumn::npos) << e;
      continue;
    }
    // Entries come in ascending entity order: entity e is entry number
    // `configured`, with its value, intent and cause alongside.
    ASSERT_EQ(i, configured) << e;
    EXPECT_EQ(col.entity(i), e);
    EXPECT_EQ(col.value_at(i), ref.value[e]);
    EXPECT_EQ(col.intended_at(i), ref.intended[e]);
    EXPECT_EQ(col.cause_at(i), ref.cause[e]);
    ++configured;
  }
  EXPECT_EQ(col.configured_count(), configured);

  // Per-carrier ranges over a partition of the entities (carriers of no
  // entity included): each range holds exactly its carrier's entries.
  for (std::size_t c = 0; c + 1 < offsets.size(); ++c) {
    const ParamColumn::Range r = col.range(offsets[c], offsets[c + 1]);
    std::size_t before = 0;
    std::size_t within = 0;
    for (std::size_t e = 0; e < offsets[c + 1]; ++e) {
      if (ref.value[e] == kUnset) continue;
      (e < offsets[c] ? before : within) += 1;
    }
    EXPECT_EQ(r.begin, before) << "carrier " << c;
    EXPECT_EQ(r.end - r.begin, within) << "carrier " << c;
  }
}

TEST(ParamColumn, MatchesADenseReferenceUnderRandomEdits) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 160));
    DenseColumn ref{std::vector<ValueIndex>(n, kUnset), std::vector<ValueIndex>(n, kUnset),
                    std::vector<Cause>(n, Cause::kDefault)};
    const auto random_cause = [&] {
      return static_cast<Cause>(rng.uniform_int(0, static_cast<int>(Cause::kNoise)));
    };
    // Every third seed configures only the top quarter of the id space, so
    // most carriers' ranges are empty.
    for (std::size_t e = 0; e < n; ++e) {
      if (rng.uniform() < 0.3 && (seed % 3 != 0 || e >= 3 * n / 4)) {
        ref.set(e, static_cast<ValueIndex>(rng.uniform_int(0, 40)),
                static_cast<ValueIndex>(rng.uniform_int(0, 40)), random_cause());
      }
    }
    ParamColumn col = ParamColumn::from_dense(ref.value, ref.intended, ref.cause);
    // Built at its configured count, with no slack.
    EXPECT_EQ(col.heap_bytes(), 13 * col.configured_count());

    // Carriers of 0-5 entities each.
    std::vector<std::size_t> offsets{0};
    while (offsets.back() < n) {
      offsets.push_back(std::min(
          n, offsets.back() + static_cast<std::size_t>(rng.uniform_int(0, 5))));
    }
    expect_matches(col, ref, offsets);
    if (n == 0) continue;

    for (int step = 0; step < 300; ++step) {
      const auto e = static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
      const double u = rng.uniform();
      if (u < 0.35) {
        // Erase (or a no-op on an unset slot).
        col.set(e, kUnset, 0, Cause::kDefault);
        ref.set(e, kUnset, 0, Cause::kDefault);
      } else if (u < 0.9) {
        // Insert or update.
        const auto v = static_cast<ValueIndex>(rng.uniform_int(0, 40));
        const auto i = static_cast<ValueIndex>(rng.uniform_int(0, 40));
        const Cause c = random_cause();
        col.set(e, v, i, c);
        ref.set(e, v, i, c);
      } else if (u < 0.95) {
        // An in-place update of a configured entry keeps its intent.
        const std::size_t i = col.find(e);
        EXPECT_EQ(i == ParamColumn::npos, ref.value[e] == kUnset);
        if (i == ParamColumn::npos) continue;
        const auto v = static_cast<ValueIndex>(rng.uniform_int(0, 40));
        const Cause c = random_cause();
        col.update_at(i, v, c);
        ref.set(e, v, ref.intended[e], c);
      } else {
        // The in-place subscript changes a configured value and keeps no
        // write to an absent one.
        ValueIndex& cell = col.value[e];
        EXPECT_EQ(cell, ref.value[e]);
        cell = 17;
        if (ref.value[e] != kUnset) ref.value[e] = 17;
      }
      if (step % 25 == 0) expect_matches(col, ref, offsets);
    }
    expect_matches(col, ref, offsets);
  }
}

TEST(ParamColumn, RejectsOutOfOrderAppendsAndOutOfRangeSlots) {
  ParamColumn col(4);
  col.append(1, 5, 5, Cause::kDefault);
  EXPECT_THROW(col.append(1, 6, 6, Cause::kDefault), std::invalid_argument);
  EXPECT_THROW(col.append(0, 6, 6, Cause::kDefault), std::invalid_argument);
  EXPECT_THROW(col.append(4, 6, 6, Cause::kDefault), std::invalid_argument);
  EXPECT_THROW(col.set(4, 6, 6, Cause::kDefault), std::out_of_range);
  col.set(4, kUnset, kUnset, Cause::kDefault);  // erasing an absent slot is a no-op
  EXPECT_EQ(col.configured_count(), 1u);
}

}  // namespace
}  // namespace auric::config
